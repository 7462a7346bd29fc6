import random

import pytest

from qalinks.cli import corpus_inputs, parse, to_diagram
from qalinks.diagram import Diagram, UNKNOT
from qalinks.invariants import (
    ConwayRelationReport,
    SplitLink,
    det_exact,
    det_goeritz,
    det_spanning_trees,
    determinant,
    find_negative_orientation,
    find_positive_orientation,
    genus_certified,
    goeritz_matrix,
    is_definite,
    mo_relations_check,
    report_orientation,
    signature,
    signature_exact,
)
from qalinks.montesinos import compile_montesinos, compile_rational

from test_diagram import fig8, hopf, positive_trefoil, trefoil

UNLINK2 = Diagram((), free_loops=2)


def m137() -> Diagram:
    # M(0; 1/2, 1/3, 1/7)
    return compile_montesinos(0, [[2], [3], [7]])


def goeritz_reference(d: Diagram) -> list[list[int]]:
    """The Goeritz matrix built on its own: the signed Laplacian of the
    white Tait graph, then its first row and column deleted."""
    w = d.white_graph()
    pos = {f: i for i, f in enumerate(w.vertices)}
    m = len(pos)
    g = [[0] * m for _ in range(m)]
    for u, v, sign, _ in w.edges:
        if u != v:
            i, j = pos[u], pos[v]
            g[i][j] -= sign
            g[j][i] -= sign
            g[i][i] += sign
            g[j][j] += sign
    return [row[1:] for row in g[1:]]


class TestExactLinearAlgebra:
    def test_det_small(self):
        assert det_exact([[2, 1], [1, 2]]) == 3
        assert det_exact([[0, 1], [1, 0]]) == -1
        assert det_exact([]) == 1
        assert det_exact([[0, 0], [0, 0]]) == 0

    def test_signature_small(self):
        assert signature_exact([[2]]) == 1
        assert signature_exact([[-2]]) == -1
        assert signature_exact([[0, 1], [1, 0]]) == 0
        assert signature_exact([[2, 1], [1, 2]]) == 2
        assert signature_exact([]) == 0

    def test_signature_zero_diagonal_with_offdiag(self):
        # hyperbolic plane plus a definite part
        m = [[0, 1, 0], [1, 0, 0], [0, 0, 3]]
        assert signature_exact(m) == 1

    def test_random_congruence_invariance(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(1, 5)
            a = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    a[i][j] = a[j][i] = rng.randint(-3, 3)
            sig = signature_exact(a)
            # congruence by a random unimodular elementary move
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.choice((-2, -1, 1, 2))
                for k in range(n):
                    a[i][k] += c * a[j][k]
                for k in range(n):
                    a[k][i] += c * a[k][j]
            assert signature_exact(a) == sig


class TestDeterminant:
    def test_named_values(self):
        assert determinant(UNKNOT) == 1
        assert determinant(hopf()) == 2
        assert determinant(trefoil()) == 3
        assert determinant(fig8()) == 5
        assert determinant(m137()) == 41

    def test_split_is_zero(self):
        assert determinant(UNLINK2) == 0

    def test_goeritz_requires_connected(self):
        with pytest.raises(SplitLink):
            det_goeritz(UNLINK2)

    def test_split_with_crossings_is_zero(self):
        t = trefoil().pairing
        assert determinant(Diagram(t + tuple(h + len(t) for h in t))) == 0
        assert determinant(Diagram(t, free_loops=1)) == 0
        with pytest.raises(SplitLink):
            determinant(Diagram(()))

    def test_connected_walked_once(self, raw_walks):
        # a fresh diagram: the compiler's validate has derived m137's pieces
        d = Diagram(m137().pairing)
        assert determinant(d) == 41
        assert determinant(d) == 41
        assert raw_walks["pieces", id(d)] == 1

    def test_goeritz_matrix_trefoil(self):
        g, ends = goeritz_matrix(trefoil())
        assert abs(det_exact(g, ends)) == 3

    def test_goeritz_matrix_matches_reference(self):
        # the reduced signed Laplacian of the white Tait graph, entry for
        # entry, and row bounds the kernel may use: no nonzero past them
        for d in [UNKNOT] + [to_diagram(parse(label))
                             for label in corpus_inputs(0)]:
            rows, ends = goeritz_matrix(d)
            assert rows == goeritz_reference(d)
            assert len(ends) == len(rows)
            for i, (row, end) in enumerate(zip(rows, ends)):
                assert i <= end < len(rows) and not any(row[end + 1:])

    def test_tree_oracle_agrees(self):
        for d in (trefoil(), fig8(), hopf(), m137(), compile_rational([3, 2])):
            want = det_goeritz(d)
            got = det_spanning_trees(d.black_graph())
            assert got == want

    def test_tree_oracle_agrees_random(self):
        rng = random.Random(3)
        for _ in range(25):
            entries = [rng.choice((-3, -2, 2, 3))
                       for _ in range(rng.randint(1, 4))]
            d = compile_rational(entries)
            if not d.is_connected():
                continue
            assert det_goeritz(d) == det_spanning_trees(
                d.black_graph())

    def test_mirror_invariance(self):
        for d in (trefoil(), fig8(), m137()):
            assert determinant(d.mirror()) == determinant(d)


class TestSignature:
    def test_named_values(self):
        assert signature(UNKNOT.oriented()) == 0
        assert signature(positive_trefoil()) == -2
        assert signature(positive_trefoil().mirror()) == 2
        assert signature(fig8().oriented()) == 0

    def test_hopf_both_orientations(self):
        sigs = {o.writhe(): signature(o) for o in hopf().orientations()}
        assert sigs == {2: -1, -2: 1}

    def test_mirror_negates(self):
        for d in (trefoil(), fig8(), m137()):
            o = d.oriented()
            assert signature(o.mirror()) == -signature(o)

    def test_positive_diagram_negative_signature(self):
        # every positive diagram has negative signature
        for d in (positive_trefoil(),
                  compile_montesinos(0, [[-2, -2], [-2, -2], [-2, -2]])):
            o = find_positive_orientation(d)
            if o is None:
                o = find_positive_orientation(d.mirror())
            assert o is not None
            assert signature(o) < 0

    def test_split_rejected(self):
        with pytest.raises(SplitLink):
            signature(UNLINK2.oriented())

    def test_colored_once(self, raw_walks):
        d = Diagram(m137().pairing).oriented()
        assert signature(d) == signature(m137().oriented())
        assert signature(d) == signature(m137().oriented())
        assert raw_walks["checkerboard", id(d)] == 1


class TestGenus:
    def test_trefoil(self):
        cert = genus_certified(trefoil().oriented())
        assert cert is not None and cert.genus == 1
        assert cert.method == "alternating-reduced"

    def test_fig8(self):
        cert = genus_certified(fig8().oriented())
        assert cert is not None and cert.genus == 1

    def test_unknot(self):
        cert = genus_certified(Diagram((1, 0, 3, 2)).oriented())
        assert cert is not None and cert.genus == 0

    def test_positive_method(self):
        d = compile_montesinos(2, [[-2], [-2, -2], [-2, -2]])
        o = find_positive_orientation(d) or find_positive_orientation(d.mirror())
        assert o is not None
        cert = genus_certified(o)
        assert cert is not None

    def test_definiteness(self):
        # trefoil: g=1, sigma=-2, knot -> definite; fig8: g=1, sigma=0 -> not
        assert is_definite(1, -2, 1)
        assert not is_definite(1, 0, 1)
        # Hopf: g=0, sigma=-1, 2 components -> definite
        assert is_definite(0, -1, 2)

    def test_negative_orientation(self):
        d = positive_trefoil().mirror()
        assert find_negative_orientation(d) is not None
        assert find_positive_orientation(d) is None


def conway_check(o: Diagram, p: int, det_l: int, sig_l: int):
    """mo_relations_check at crossing p of o, handed the oriented
    resolutions and their determinants."""
    d0, dinf = o.resolve_oriented(p)
    dets = (det_l, determinant(d0), determinant(dinf))
    return mo_relations_check(o, p, d0, dinf, dets, sig_l)


class TestConwayRelations:
    def test_trefoil_all_crossings(self):
        d = positive_trefoil()
        for p in range(d.n):
            rep = conway_check(d, p, determinant(d), signature(d))
            assert (rep.proviso_ok and rep.det_identity and rep.sigma_relation
                    and rep.e_relation), (p, rep)

    def test_fig8_all_crossings(self):
        d = fig8().oriented()
        for p in range(d.n):
            rep = conway_check(d, p, determinant(d), signature(d))
            assert rep.proviso_ok and rep.det_identity and rep.sigma_relation

    def test_proviso_failure(self):
        # resolving one Hopf crossing gives an unknot (det 1) but the other
        # resolution of the resulting kink diagram can be split
        d = Diagram((1, 0, 3, 2)).oriented()  # kink: one resolution is split
        rep = conway_check(d, 0, determinant(d), signature(d))
        assert isinstance(rep, ConwayRelationReport)
        assert not rep.proviso_ok
        assert (rep.det_identity, rep.sigma_relation, rep.e_relation) == \
            (None, None, None)

    def test_signature_of_the_link_computed_once(self, monkeypatch):
        # sigma(L0) and sigma of one orientation of L-infinity; the caller
        # passes sigma(L)
        from qalinks import invariants
        from qalinks.cli import parse, to_diagram
        d = to_diagram(parse("M(0; 1/3, 1/3, -1/2)"))
        o = report_orientation(d)
        det_l, sig_l = determinant(o), signature(o)
        calls = []
        original = invariants._det_signature
        monkeypatch.setattr(invariants, "_det_signature",
                            lambda rows, ends=None:
                            calls.append(1) or original(rows, ends))
        for p in range(o.n):
            d0, dinf = o.resolve_oriented(p)
            dets = (det_l, determinant(d0), determinant(dinf))
            calls.clear()
            rep = mo_relations_check(o, p, d0, dinf, dets, sig_l)
            assert rep.proviso_ok and not rep.e_relation
            assert len(list(dinf.orientations())) == 1
            assert len(calls) == 2, p


def _negatives(d: Diagram) -> int:
    return sum(d.crossing_sign(c) == -1 for c in range(d.n))


class TestERelation:
    def test_e_relation_outcome_is_the_same_for_every_linf_orientation(self):
        # sigma(o) - n_-(o) does not depend on the orientation o of Linf,
        # so mo_relations_check tries one
        from qalinks.cli import corpus_inputs, parse, to_diagram
        checked = 0
        for label in corpus_inputs(0):
            d = to_diagram(parse(label))
            o = report_orientation(d)
            det, sig = determinant(o), signature(o)
            for p in range(o.n):
                d0, dinf = o.resolve_oriented(p)
                orientations = dinf.orientations()
                if len(orientations) == 1:
                    continue
                dets = (det, determinant(d0), determinant(dinf))
                rep = mo_relations_check(o, p, d0, dinf, dets, sig)
                if not rep.proviso_ok:
                    continue
                e0 = _negatives(d0)
                outcomes = {sig - signature(x) == e0 - _negatives(x)
                            for x in orientations}
                assert outcomes == {rep.e_relation}, (label, p)
                checked += 1
        assert checked >= 700


def enumerated_orientation(d: Diagram, sign: int):
    """The search the parity walk replaced: the first orientation in
    ``Diagram.orientations()`` order giving every crossing ``sign``."""
    if d.n == 0:
        return d.oriented()
    for o in d.orientations():
        if all(o.crossing_sign(c) == sign for c in range(d.n)):
            return o
    return None


def disjoint_union(a: Diagram, b: Diagram) -> Diagram:
    shift = 4 * a.n
    return Diagram(a.pairing + tuple(h + shift for h in b.pairing),
                   a.free_loops + b.free_loops)


class TestCoherentOrientation:
    def test_matches_enumeration(self):
        from qalinks.cli import corpus_inputs, parse, to_diagram
        rng = random.Random(41)
        labels = dict.fromkeys(label for seed in range(3)
                               for label in corpus_inputs(seed))
        cases = []
        for label in labels:
            d = to_diagram(parse(label))
            c = rng.randrange(d.n)
            cases += [d, d.mirror(), d.resolve(c, "zero"),
                      d.resolve(c, "infinity")]
        pieces = cases[:]
        for _ in range(400):
            a, b = rng.sample(pieces, 2)
            cases.append(disjoint_union(a, b))
        split = found = 0
        for d in cases:
            d.validate()
            split += d.is_split()
            for sign, walk in ((1, find_positive_orientation),
                               (-1, find_negative_orientation)):
                got = walk(d)
                assert got == enumerated_orientation(d, sign)
                found += got is not None
        assert split >= 400 and found >= 300

    def test_blocks_rooted_for_the_first_match(self):
        # a Hopf link next to a split Hopf link: component 0 keeps its
        # direction, the second block is rooted at its highest component
        d = disjoint_union(hopf(), hopf())
        for sign, walk in ((1, find_positive_orientation),
                           (-1, find_negative_orientation)):
            got = walk(d)
            assert got is not None
            assert got == enumerated_orientation(d, sign)

    def test_report_orients_once(self, monkeypatch):
        # the positive search, the negative search and the fallback build
        # no orientation besides the one the report returns
        calls = []
        oriented = Diagram.oriented
        monkeypatch.setattr(Diagram, "oriented", lambda self, hints=():
                            calls.append(self) or oriented(self, hints))
        fallbacks = 0
        for label in corpus_inputs(0):
            calls.clear()
            d = to_diagram(parse(label))
            report_orientation(d)
            assert len(calls) == 1, label
            fallbacks += d.components > 1 and not (
                find_positive_orientation(d) or find_negative_orientation(d))
        assert fallbacks > 0

    def test_unknot_and_unlink(self):
        for d in (UNKNOT, UNLINK2):
            assert find_positive_orientation(d) == d.oriented()
            assert find_negative_orientation(d) == d.oriented()
