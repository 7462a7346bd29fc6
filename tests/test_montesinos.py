import random

import pytest

from qalinks.cfrac import INF, PreconditionViolated, Rational, cf_eval
from qalinks.diagram import Diagram
from qalinks.invariants import (
    determinant,
    find_positive_orientation,
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
    halfslope_sites,
    montesinos_data,
    montesinos_from_entries,
    positive_orientation_verdict,
    sqp_verdict,
    tangle_entries,
    tangle_replace,
    two_bridge_genus,
)


def positive_closure(d):
    return find_positive_orientation(d) or find_positive_orientation(d.mirror())


class TestCompiler:
    def test_two_bridge_det_is_alpha(self):
        for num, den in ((1, 2), (1, 3), (2, 3), (2, 5), (3, 7), (4, 13)):
            entries = tangle_entries(Rational(num, den))
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
                slopes.append(Rational(b, a))
            m = montesinos_data(e, slopes)
            d = compile_data(m)
            total = Rational(m.e)
            prod = 1
            for q in m.slopes:
                total = total + q
                prod *= q.den
            want = abs(prod * total.num // total.den) if total.den == 1 else None
            if want is None:
                scaled = prod * total.num
                assert scaled % total.den == 0
                want = abs(scaled // total.den)
            assert determinant(d) == want

    def test_m137(self):
        d = compile_montesinos(0, [[2], [3], [7]])
        assert determinant(d) == 41

    def test_two_bridge_compile_alternating(self):
        for num, den in ((1, 2), (2, 3), (2, 5), (3, 7), (5, 13)):
            d = compile_two_bridge(TwoBridge(Rational(num, den)))
            assert d.is_alternating()
            assert determinant(d) == den


class TestNormalForm:
    def test_validation(self):
        with pytest.raises(PreconditionViolated):
            MontesinosData(0, (Rational(1, 1),), ((1,),))
        with pytest.raises(PreconditionViolated):
            MontesinosData(0, (Rational(1, 2),), ((3,),))  # cf/slope mismatch
        m = montesinos_data(1, [Rational(3, 2), Rational(1, 3), Rational(1, 3)])
        assert all(-q.den < q.num < q.den for q in m.slopes)
        # integer parts absorbed into e; total preserved
        total = Rational(m.e)
        for q in m.slopes:
            total = total + q
        want = Rational(1) + Rational(3, 2) + Rational(1, 3) + Rational(1, 3)
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
        assert o.seifert_genus_diagram().num == 3


class TestTwoBridgeGenus:
    def test_examples(self):
        assert two_bridge_genus(TwoBridge(Rational(1, 2))) == 0
        assert two_bridge_genus(TwoBridge(Rational(2, 3))) == 1
        assert two_bridge_genus(TwoBridge(INF)) == 0
        assert two_bridge_genus(TwoBridge(Rational(3))) == 0

    def test_mirror_invariance(self):
        for num, den in ((1, 3), (2, 5), (3, 7)):
            a = two_bridge_genus(TwoBridge(Rational(num, den)))
            b = two_bridge_genus(TwoBridge(Rational(-num, den)))
            assert a == b


class TestSqpVerdict:
    def test_priority(self):
        assert sqp_verdict(montesinos_from_entries(
            0, [[-2, -2], [-2, -2], [-2, -2]])).reason == "Prop1.5-1"
        v = sqp_verdict(montesinos_from_entries(0, [[2], [2, -2], [-2, 2]]))
        assert v.kind == "NotSQP"
        assert sqp_verdict(montesinos_data(
            0, [Rational(1, 2), Rational(1, 3), Rational(1, 7)])).kind == "Unknown"

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


class TestTangleReplace:
    def test_direct_match(self):
        for ts in ([[2], [3]], [[2, 2], [3]]):
            d_half = compile_montesinos(0, ts + [[-2]])
            d_two = compile_montesinos(-2, ts)
            sites = halfslope_sites(d_half)
            assert any(
                tangle_replace(d_half, s).canonical_key()
                == d_two.canonical_key()
                for s in sites)

    def test_bad_site_rejected(self):
        d = compile_montesinos(0, [[2], [3], [-2]])
        with pytest.raises(PreconditionViolated):
            tangle_replace(d, (0, 0))
