import importlib.util
import itertools
import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from qalinks import montesinos

from qalinks.cfrac import PreconditionViolated, cf_eval
from qalinks.diagram import Diagram
from qalinks.invariants import (
    determinant,
    find_positive_orientation,
    genus_certified,
    report_orientation,
    signature,
)
from qalinks.montesinos import (
    MontesinosData,
    SqpVerdict,
    TwoBridge,
    band_move_bound,
    classify_prop15,
    compile_data,
    compile_montesinos,
    compile_rational,
    compile_two_bridge,
    detect_prop16,
    genus_hm,
    montesinos_data,
    montesinos_from_entries,
    positive_orientation_verdict,
    sqp_verdict,
    tangle_entries,
    two_bridge_genus,
    two_bridge_slope,
)


def positive_closure(d):
    return find_positive_orientation(d) or find_positive_orientation(d.mirror())


class TokenGraphAssembler:
    """The assembler the join-time pairing replaced: every connection is an
    edge of a token graph, each crossing slot is chased through the wires
    to its partner, and wire cycles that touch no crossing are counted as
    free loops.  Ends are the ints ``montesinos._Assembler`` hands out."""

    def __init__(self):
        self.n = 0
        self.conn = []
        self._serial = 0

    def crossing(self):
        self.n += 1
        return self.n - 1

    def wire(self):
        a, b = -1 - self._serial, -2 - self._serial
        self._serial += 2
        self.conn.append((a, b))
        return a, b

    def join(self, a, b):
        self.conn.append((a, b))

    def twists(self, ne, se, count, slots):
        """One crossing and two joins per twist."""
        nw_s, ne_s, se_s, sw_s = slots
        for _ in range(count):
            c = self.crossing()
            self.join(ne, 4 * c + nw_s)
            self.join(se, 4 * c + sw_s)
            ne, se = 4 * c + ne_s, 4 * c + se_s
        return ne, se

    def diagram(self):
        adj = {}
        for a, b in self.conn:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        for end, nbrs in adj.items():
            if len(nbrs) != (1 if end >= 0 else 2):
                raise PreconditionViolated(f"dangling tangle boundary at {end}")
        pairing = [0] * (4 * self.n)
        seen_wires = set()
        for h in range(4 * self.n):
            prev, cur = h, adj[h][0]
            while cur < 0:
                seen_wires.add(cur)
                a, b = adj[cur]
                prev, cur = cur, (b if a == prev else a)
            pairing[h] = cur
        loops = 0
        left = {end for end in adj if end < 0} - seen_wires
        while left:
            start = next(iter(left))
            prev, cur = start, adj[start][0]
            cycle = {start}
            while cur != start:
                cycle.add(cur)
                a, b = adj[cur]
                prev, cur = cur, (b if a == prev else a)
            left -= cycle
            loops += 1
        d = Diagram(tuple(pairing), free_loops=loops)
        d.validate()
        return d


def bench_workloads():
    """The benchmark's ``perfbench/workloads.py``, loaded by path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def workload_labels():
    """Seed-0 labels of the benchmark's three workloads."""
    return [item.label for gen in bench_workloads().GENERATORS.values()
            for item in gen(0)]


def recursive_stem(asm, entries):
    """The recursion the loop replaced: the twists of the first entry
    around the rotated tangle of the others."""
    if not entries:
        return montesinos._zero_tangle(asm)
    nw, ne, se, sw = montesinos._rational_tangle(asm, entries[1:])
    c1 = entries[0]
    if c1:
        ne, se = asm.twists(ne, se, abs(c1), montesinos._NEG_TWIST if c1 > 0
                            else montesinos._POS_TWIST)
    return nw, ne, se, sw


class TestAssembler:
    """The join-time pairing against the token graph it replaced."""

    def both(self, monkeypatch, build):
        new = build()
        with monkeypatch.context() as m:
            m.setattr(montesinos, "_Assembler", TokenGraphAssembler)
            old = build()
        # == compares pairing, free loops and orientation
        assert new == old and new.orientation == old.orientation
        return new

    def test_labels(self, monkeypatch):
        from qalinks.cli import corpus_inputs, parse, to_diagram
        labels = workload_labels() + corpus_inputs(0)
        assert len(labels) > 300
        for label in labels:
            self.both(monkeypatch, lambda: to_diagram(parse(label)))

    def test_random_montesinos(self, monkeypatch):
        rng = random.Random(29)
        loops = 0
        for _ in range(300):
            e = rng.choice((0, 0, rng.randint(-3, 3)))
            tangles = [[rng.choice((-3, -2, -1, 1, 2, 3))
                        for _ in range(rng.randint(0, 3))]
                       for _ in range(rng.randint(0, 4))]
            d = self.both(monkeypatch,
                          lambda: compile_montesinos(e, tangles))
            loops += d.free_loops
        assert loops > 0

    def test_random_braid_closures(self, monkeypatch):
        from braids import braid_closure
        rng = random.Random(31)
        for _ in range(300):
            strands = rng.randint(1, 4)
            word = [(rng.randrange(strands - 1), rng.choice((-1, 1)))
                    for _ in range(rng.randint(0, 8) if strands > 1 else 0)]
            self.both(monkeypatch, lambda: braid_closure(word, strands))

    def test_random_stems(self, monkeypatch):
        # long runs, and zero entries between and around them
        rng = random.Random(41)
        for _ in range(200):
            entries = [rng.choice((0, rng.randint(-45, 45)))
                       for _ in range(rng.randint(1, 5))]
            self.both(monkeypatch, lambda: compile_rational(entries))
            e, tangles = rng.randint(-3, 3), [entries, [rng.randint(-45, 45)]]
            self.both(monkeypatch, lambda: compile_montesinos(e, tangles))

    @pytest.mark.parametrize("assembler",
                             [montesinos._Assembler, TokenGraphAssembler])
    def test_dangling_boundary(self, assembler):
        for twists in (0, 1):
            asm = assembler()
            t = montesinos._rational_stem(asm, [-twists])
            asm.join(t[montesinos.NW], t[montesinos.NE])
            with pytest.raises(PreconditionViolated):
                asm.diagram()


class TestCompiler:
    def test_two_bridge_det_is_alpha(self):
        for num, den in ((1, 2), (1, 3), (2, 3), (2, 5), (3, 7), (4, 13)):
            entries = tangle_entries(Fraction(num, den))
            assert determinant(compile_rational(list(entries))) == den

    def test_montesinos_det_formula(self):
        rng = random.Random(1)
        from math import gcd
        for _ in range(15):
            r = rng.randint(3, 4)
            e = rng.randint(-2, 2)
            slopes = []
            for _ in range(r):
                a = rng.randint(2, 5)
                b = rng.choice([x for x in range(-a + 1, a)
                                if x and gcd(abs(x), a) == 1])
                slopes.append(Fraction(b, a))
            m = montesinos_data(e, slopes)
            d = compile_data(m)
            total = Fraction(m.e)
            prod = 1
            for q in m.slopes:
                total = total + q
                prod *= q.denominator
            want = (abs(prod * total.numerator // total.denominator)
                    if total.denominator == 1 else None)
            if want is None:
                scaled = prod * total.numerator
                assert scaled % total.denominator == 0
                want = abs(scaled // total.denominator)
            assert determinant(d) == want

    def test_stem_matches_the_recursion(self, monkeypatch):
        rng = random.Random(37)
        for _ in range(300):
            entries = [rng.randint(-3, 3) for _ in range(rng.randint(0, 6))]
            e = rng.randint(-2, 2)
            tangles = [[rng.randint(-3, 3) for _ in range(rng.randint(0, 4))]
                       for _ in range(rng.randint(1, 4))]
            new = (compile_rational(entries), compile_montesinos(e, tangles))
            with monkeypatch.context() as m:
                m.setattr(montesinos, "_rational_stem", recursive_stem)
                old = (compile_rational(entries),
                       compile_montesinos(e, tangles))
            assert new == old, (entries, e, tangles)

    def test_long_expansion(self):
        # 4,000 entries, far past the interpreter's recursion limit
        d = compile_rational([2, -3] * 2000)
        assert d.n == 10000 and d.components == 1

    def test_m137(self):
        d = compile_montesinos(0, [[2], [3], [7]])
        assert determinant(d) == 41

    def test_two_bridge_compile_alternating(self):
        for num, den in ((1, 2), (2, 3), (2, 5), (3, 7), (5, 13)):
            d = compile_two_bridge(TwoBridge(Fraction(num, den)))
            assert d.is_alternating()
            assert determinant(d) == den

    def test_integer_slope_is_the_unknot(self):
        # L(k/1) has determinant 1; the empty expansion is slope infinity
        for k in (-2, 0, 1, 3):
            d = compile_two_bridge(TwoBridge(Fraction(k)))
            assert d.n == 0 and d.components == 1 and not d.is_split()
            assert determinant(d) == 1


def sign_profile(d):
    """det, components and the sorted signatures of every orientation."""
    return (determinant(d), d.components,
            sorted(signature(o) for o in d.orientations()))


class TestTwoBridgeSlope:
    def test_matches_the_tangle_compiler(self):
        # every M(e; t1, t2) with |e| <= 1 and alpha <= 5 whose closure
        # does not split, unknots (slope p/1) included
        slopes = [Fraction(b, a) for a in range(2, 6) for b in range(1 - a, a)
                  if b and gcd(a, b) == 1]
        count = 0
        for e in (-1, 0, 1):
            for t1 in slopes:
                for t2 in slopes:
                    slope = two_bridge_slope(e, [t1, t2])
                    if slope is None:
                        assert e + t1 + t2 == 0
                        continue
                    want = compile_data(montesinos_data(e, [t1, t2]))
                    got = compile_two_bridge(TwoBridge(slope))
                    assert sign_profile(got) == sign_profile(want), (e, t1, t2)
                    count += 1
        assert count > 900

    def test_one_tangle_is_the_reciprocal_sum(self):
        for e in (-2, 0, 1):
            for q in (Fraction(1, 2), Fraction(-2, 3), Fraction(3, 7)):
                assert two_bridge_slope(e, [q]) == 1 / (e + q)

    def test_band_move_remainder_of_two_tangles(self):
        # the remainder M(0; 1/4, 4/5) certifies genus 2 from a positive
        # diagram, so the 4-genus bound is 2 + g(L) + 1 = 3 < genus 6
        m = montesinos_data(0, [Fraction(1, 4), Fraction(-4, 5),
                                Fraction(4, 5), Fraction(4, 5)])
        rest = compile_data(montesinos_data(0, [Fraction(1, 4),
                                                Fraction(4, 5)]))
        assert genus_certified(report_orientation(rest)).genus == 2
        assert genus_hm(m) == 6 and band_move_bound(m, 2) == 3
        v = sqp_verdict(m)
        assert v.kind == "NotSQP" and v.reason == "Prop1.6"


class TestNormalForm:
    def test_validation(self):
        with pytest.raises(PreconditionViolated):
            MontesinosData(0, (Fraction(1, 1),), ((1,),))
        with pytest.raises(PreconditionViolated):
            MontesinosData(0, (Fraction(1, 2),), ((3,),))  # cf/slope mismatch
        m = montesinos_data(1, [Fraction(3, 2), Fraction(1, 3), Fraction(1, 3)])
        assert all(-q.denominator < q.numerator < q.denominator
                   for q in m.slopes)
        # integer parts absorbed into e; total preserved
        total = Fraction(m.e)
        for q in m.slopes:
            total = total + q
        want = Fraction(1) + Fraction(3, 2) + Fraction(1, 3) + Fraction(1, 3)
        assert total == want

    def test_roundtrip_entries(self):
        m = montesinos_from_entries(2, [[-2], [-2, -2], [-2, -2]])
        assert m.r == 3
        assert [cf_eval(list(es)) for es in m.cfs] == list(m.slopes)


class TestProp15:
    CASES = [
        (0, [[-2, -2], [-2, -2], [-2, -2]], "Prop1.5-1"),
        (2, [[-2], [-2], [-2]], "Prop1.5-2"),
        (0, [[-2], [-2, -2], [-2, -2]], "Prop1.5-3"),
    ]

    def test_cases(self):
        for e, ts, want in self.CASES:
            m = montesinos_from_entries(e, ts)
            v = classify_prop15(m)
            assert v.kind == "SQP" and v.reason == want

    def test_positive_orientation_and_signature(self):
        for e, ts, _ in self.CASES:
            d = compile_data(montesinos_from_entries(e, ts))
            o = positive_closure(d)
            assert o is not None
            assert signature(o) < 0

    def test_non_matching(self):
        assert classify_prop15(
            montesinos_from_entries(1, [[-2], [-2], [-2]])).kind == "Unknown"
        assert classify_prop15(
            montesinos_from_entries(0, [[2], [-2], [-2]])).kind == "Unknown"
        assert classify_prop15(
            montesinos_from_entries(-2, [[-2], [-2], [-2]])).kind == "Unknown"

    def test_sweep(self):
        rng = random.Random(9)
        hits = 0
        while hits < 25:
            r = rng.randint(3, 4)
            e = rng.choice((0, 2))
            ts = []
            for _ in range(r):
                k = rng.randint(1, 3)
                ts.append([rng.choice((-2, -4)) for _ in range(k)])
            m = montesinos_from_entries(e, ts)
            v = classify_prop15(m)
            odd = sum(len(x) % 2 for x in ts)
            if odd in (0, r) or odd == 1:
                assert v.kind == "SQP"
                assert positive_closure(compile_data(m)) is not None
                hits += 1
            else:
                assert v.kind == "Unknown"


class TestProp16:
    def test_headline_example(self):
        m = montesinos_from_entries(0, [[2], [2, -2], [-2, 2]])
        assert [str(q) for q in m.slopes] == ["1/2", "2/5", "-2/5"]
        assert genus_hm(m) == 2
        assert band_move_bound(m, 2) == 1
        v = detect_prop16(m)
        assert v.kind == "NotSQP"
        assert v.witness["genus"] == 2 and v.witness["g4_bound"] == 1

    def test_no_sign_flip(self):
        m = montesinos_from_entries(2, [[-2], [-2, -2], [-2, -2]])
        assert detect_prop16(m).kind == "Unknown"

    def test_e_odd(self):
        m = montesinos_from_entries(1, [[2], [2, -2], [-2, 2]])
        assert detect_prop16(m).kind == "Unknown"

    def test_parity_checks_leave_a_knot(self):
        # the detector's parity checks (e even, alpha_1 even, every other
        # alpha odd over an even beta) leave exactly one even denominator,
        # so every form that passes them is a knot, and the detector needs
        # no component count
        from qalinks.montesinos import _prop16_hypotheses
        slopes = [Fraction(b, a) for a in range(2, 6) for b in range(1 - a, a)
                  if b and gcd(abs(b), a) == 1]
        first = [q for q in slopes if q.denominator % 2 == 0]
        rest = [q for q in slopes
                if q.denominator % 2 == 1 and q.numerator % 2 == 0]
        forms = [(e, (q, *qs)) for e in (-2, 0, 2) for q in first
                 for qs in itertools.product(rest, repeat=2)]
        forms += [(0, (q, *qs)) for q in first
                  for qs in itertools.product(rest, repeat=3)]
        reached = 0
        for e, qs in forms:
            m = montesinos_data(e, qs)
            assert compile_data(m).components == 1, (e, qs)
            reached += _prop16_hypotheses(m) is not None
        assert len(forms) == 1944 and reached > 500


class TestGenusHM:
    def test_three_cases(self):
        assert genus_hm(montesinos_from_entries(2, [[2], [2, -2], [-2, 2]])) == 3
        assert genus_hm(montesinos_from_entries(0, [[2], [2, -2], [-2, 2]])) == 2
        assert genus_hm(montesinos_from_entries(
            0, [[2], [-2, 2], [2, -2], [-2, 2]])) == 2

    def test_positive_diagram_cross_check(self):
        m = montesinos_from_entries(2, [[-2], [-2, -2], [-2, -2]])
        assert genus_hm(m) == 3
        o = positive_closure(compile_data(m))
        assert o is not None
        assert o.seifert_genus_diagram() == 3


class TestTwoBridgeGenus:
    def test_examples(self):
        assert two_bridge_genus(TwoBridge(Fraction(1, 2))) == 0
        assert two_bridge_genus(TwoBridge(Fraction(2, 3))) == 1
        assert two_bridge_genus(TwoBridge(Fraction(3))) == 0

    def test_mirror_invariance(self):
        for num, den in ((1, 3), (2, 5), (3, 7)):
            a = two_bridge_genus(TwoBridge(Fraction(num, den)))
            b = two_bridge_genus(TwoBridge(Fraction(-num, den)))
            assert a == b


class TestSqpVerdict:
    def test_priority(self):
        assert sqp_verdict(montesinos_from_entries(
            0, [[-2, -2], [-2, -2], [-2, -2]])).reason == "Prop1.5-1"
        v = sqp_verdict(montesinos_from_entries(0, [[2], [2, -2], [-2, 2]]))
        assert v.kind == "NotSQP"
        assert sqp_verdict(montesinos_data(
            0, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)])).kind == "Unknown"

    def test_positive_orientation_fallback(self):
        # all-positive entries give the mirror of an all-negative instance
        v = sqp_verdict(montesinos_from_entries(0, [[2, 2], [2, 2], [2, 2]]))
        assert v.kind == "SQP"
        assert v.reason in ("PositiveOrientation", "Prop1.5-1")

    def test_positive_orientation_verdict(self):
        from test_diagram import fig8, positive_trefoil
        t = positive_trefoil()
        assert positive_orientation_verdict(t) == SqpVerdict(
            "SQP", "PositiveOrientation")
        assert positive_orientation_verdict(t.mirror()) == SqpVerdict(
            "SQP", "PositiveOrientation", {"mirrored": True})
        assert positive_orientation_verdict(fig8()).kind == "Unknown"
