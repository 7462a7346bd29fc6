import random

import pytest

from qalinks.diagram import Diagram, UNKNOT, from_pd
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
    homogeneous_genus_lower_bound,
    is_definite,
    lps_check,
    mo_relations_check,
    signature,
    signature_exact,
    st_trichotomy_check,
)
from qalinks.montesinos import compile_montesinos, compile_rational

from test_diagram import TREFOIL_PD, fig8, hopf, positive_trefoil, trefoil

UNLINK2 = Diagram((), free_loops=2)


def m137() -> Diagram:
    # M(0; 1/2, 1/3, 1/7)
    return compile_montesinos(0, [[2], [3], [7]])


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
        g = goeritz_matrix(trefoil())
        assert abs(det_exact(g)) == 3

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
        cert = genus_certified(trefoil())
        assert cert is not None and cert.genus == 1
        assert cert.method == "alternating-reduced"

    def test_fig8(self):
        cert = genus_certified(fig8())
        assert cert is not None and cert.genus == 1

    def test_unknot(self):
        cert = genus_certified(Diagram((1, 0, 3, 2)))
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


class TestWidthBound:
    def test_positive_trefoil_equality(self):
        assert lps_check(positive_trefoil(), 1) == "equality"

    def test_fig8_strict(self):
        assert lps_check(fig8().oriented(), 1) == "strict"

    def test_unknot(self):
        assert lps_check(UNKNOT.oriented(), 0) == "equality"

    def test_violation_raises(self):
        with pytest.raises(AssertionError):
            lps_check(positive_trefoil(), 0)

    def test_homogeneous_lower_bound(self):
        assert homogeneous_genus_lower_bound(positive_trefoil()) == 1
        assert homogeneous_genus_lower_bound(fig8().oriented()) <= 1


class TestConwayRelations:
    def test_trefoil_all_crossings(self):
        d = positive_trefoil()
        for p in range(d.n):
            rep = mo_relations_check(d, p)
            assert rep.ok, (p, rep)

    def test_fig8_all_crossings(self):
        d = fig8().oriented()
        for p in range(d.n):
            rep = mo_relations_check(d, p)
            assert rep.proviso_ok and rep.det_identity and rep.sigma_relation

    def test_proviso_failure(self):
        # resolving one Hopf crossing gives an unknot (det 1) but the other
        # resolution of the resulting kink diagram can be split
        d = Diagram((1, 0, 3, 2)).oriented()  # kink: one resolution is split
        rep = mo_relations_check(d, 0)
        assert isinstance(rep, ConwayRelationReport)
        assert not rep.proviso_ok
        assert not rep.ok


class TestTrichotomy:
    def test_trefoil_triple(self):
        # L+ = positive trefoil (g 1), L- = unknot (g 0), L0 = Hopf (g 0, 2 comps)
        assert st_trichotomy_check(1, 0, 0, 1, 2) == 2

    def test_mirror_triple(self):
        # L+ = unknot, L- = negative trefoil, L0 = negative Hopf
        assert st_trichotomy_check(0, 1, 0, 1, 2) == 3

    def test_case1(self):
        # fig8 crossing change: both sides unknots, L0 genus forces case 1
        assert st_trichotomy_check(1, 1, 0, 1, 2) == 1

    def test_violation(self):
        with pytest.raises(AssertionError):
            st_trichotomy_check(5, 0, 0, 1, 2)
