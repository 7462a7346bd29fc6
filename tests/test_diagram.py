import random
from dataclasses import FrozenInstanceError

import pytest

from qalinks.cfrac import Rational
from qalinks.diagram import (
    BLACK,
    WHITE,
    Coloring,
    Diagram,
    MalformedDiagram,
    UnorientedDiagram,
    UNKNOT,
    from_pd,
)

# Reduced alternating fixtures.  Structure is what the tests rely on: a
# reduced alternating connected knot diagram with 3 (resp. 4) crossings is
# a trefoil (resp. figure-eight) by minimality of reduced alternating
# diagrams, and the tests below verify exactly those structural facts.
TREFOIL_PD = [(4, 2, 5, 1), (6, 4, 1, 3), (2, 6, 3, 5)]

KINK = Diagram((1, 0, 3, 2))
UNLINK2 = Diagram((), free_loops=2)


def trefoil() -> Diagram:
    return from_pd(TREFOIL_PD)


def fig8() -> Diagram:
    from qalinks.montesinos import compile_rational
    return compile_rational([2, -2])


def positive_trefoil() -> Diagram:
    """The trefoil diagram whose writhe is +3 under our sign convention."""
    d = trefoil().oriented()
    return d if d.writhe() == 3 else d.mirror()


def hopf() -> Diagram:
    """A 2-crossing alternating clasp, obtained by smoothing the trefoil."""
    t = trefoil()
    for kind in ("zero", "infinity"):
        d = t.resolve(0, kind)
        if d.components == 2:
            return d
    raise AssertionError("no trefoil resolution has two components")


class TestValidation:
    def test_kink_is_valid(self):
        KINK.validate()

    def test_fixtures_are_valid(self):
        trefoil().validate()
        fig8().validate()
        hopf().validate()

    def test_non_involution_rejected(self):
        with pytest.raises(MalformedDiagram):
            Diagram((1, 0, 2, 3)).validate()

    def test_pd_label_multiplicity(self):
        with pytest.raises(MalformedDiagram):
            from_pd([(1, 2, 3, 4), (1, 2, 3, 5)])

    def test_oriented_fixture_valid(self):
        trefoil().oriented().validate()

    def test_nonplanar_rejected(self):
        # one crossing whose arcs join opposite slots, alone and beside a
        # planar kink: each piece is checked against Euler's formula
        for d in (Diagram((2, 3, 0, 1)), Diagram((1, 0, 3, 2, 6, 7, 4, 5))):
            with pytest.raises(MalformedDiagram, match="Euler"):
                d.validate()


class TestFaces:
    def test_unknot(self):
        assert len(UNKNOT.faces()) == 2

    def test_kink(self):
        assert len(KINK.faces()) == 3

    def test_trefoil(self):
        assert len(trefoil().faces()) == 5

    def test_hopf(self):
        assert len(hopf().faces()) == 4

    def test_fig8(self):
        assert len(fig8().faces()) == 6


class TestComponents:
    def test_counts(self):
        assert trefoil().components == 1
        assert fig8().components == 1
        assert hopf().components == 2
        assert UNKNOT.components == 1

    def test_split(self):
        assert UNLINK2.is_split()
        assert not trefoil().is_split()
        assert not UNKNOT.is_split()


class TestCheckerboard:
    def test_unknot(self):
        col = UNKNOT.checkerboard()
        assert sorted(col.colors) == [WHITE, BLACK]

    def test_hopf_two_and_two(self):
        col = hopf().checkerboard()
        assert col.colors.count(WHITE) == 2 and col.colors.count(BLACK) == 2

    def test_trefoil_split(self):
        col = trefoil().checkerboard()
        assert sorted((col.colors.count(WHITE), col.colors.count(BLACK))) == [2, 3]

    def test_proper(self):
        for d in (trefoil(), fig8(), hopf(), KINK):
            col = d.checkerboard()
            idx = {h: i for i, f in enumerate(col.faces) for h in f}
            for h, p in enumerate(d.pairing):
                assert col.colors[idx[h]] != col.colors[idx[p]]

    def test_unbounded_white(self):
        col = fig8().checkerboard()
        assert col.colors[col.unbounded] == WHITE

    def test_split_rejected(self):
        t = trefoil().pairing
        two = Diagram(t + tuple(h + len(t) for h in t))
        for d in (two, Diagram(t, free_loops=1), UNLINK2):
            with pytest.raises(MalformedDiagram, match="connected"):
                d.checkerboard()


class TestBlackGraph:
    def test_edge_count_matches_crossings(self):
        for d in (trefoil(), fig8(), hopf()):
            assert len(d.black_graph().edges) == d.n
            assert len(d.white_graph().edges) == d.n

    def test_white_graph_starts_at_unbounded_face(self):
        for d in (trefoil(), fig8(), hopf(), KINK):
            col = d.checkerboard()
            w = d.white_graph()
            assert w.vertices[0] == col.unbounded
            assert sorted(w.vertices) == [i for i, cl in enumerate(col.colors)
                                          if cl == WHITE]

    def test_hopf_parallel_pair(self):
        d = hopf()
        g = d.black_graph()
        assert len(g.vertices) == 2
        ends = {frozenset((e.u, e.v)) for e in g.edges}
        assert len(ends) == 1
        assert len({e.sign for e in g.edges}) == 1

    def test_trefoil_same_signs(self):
        d = trefoil()
        g = d.black_graph()
        assert len({e.sign for e in g.edges}) == 1
        # triangle or theta graph depending on which color class is black
        assert len(g.vertices) in (2, 3)

    def test_resolution_deletes_or_contracts(self):
        d = trefoil()
        before = len(d.black_graph().vertices)
        counts = set()
        for kind in ("zero", "infinity"):
            r = d.resolve(0, kind)
            counts.add(len(r.black_graph().vertices))
        # one smoothing merges the two black corners (contract), the other
        # keeps them apart (delete); vertex counts differ accordingly
        assert counts == {before, before - 1} or counts == {before, before + 1} \
            or len(counts) == 2


class TestResolve:
    def test_trefoil_resolutions(self):
        t = trefoil()
        kinds = {}
        for kind in ("zero", "infinity"):
            r = t.resolve(0, kind)
            assert r.n == 2
            r.validate()
            kinds[kind] = r
        comp = sorted(kinds[k].components for k in kinds)
        assert comp == [1, 2]
        for k, r in kinds.items():
            s = r.simplify()
            if r.components == 1:
                assert s.n == 0 and s.free_loops == 1
            else:
                assert s.n == 2  # Hopf clasp is reduced

    def test_hopf_resolutions_unknot(self):
        h = hopf()
        for c in range(2):
            for kind in ("zero", "infinity"):
                s = h.resolve(c, kind).simplify()
                assert s.n == 0 and s.free_loops == 1

    def test_no_crossing(self):
        with pytest.raises(MalformedDiagram):
            UNKNOT.resolve(0, "zero")

    def test_resolutions_valid(self):
        for d in (fig8(), trefoil()):
            for c in range(d.n):
                for kind in ("zero", "infinity"):
                    d.resolve(c, kind).validate()


class TestCrossingChange:
    def test_involution(self):
        # double change restores the diagram (up to a slot relabel at the
        # crossing, which canonical_key quotients out)
        d = trefoil()
        dd = d.crossing_change(1).crossing_change(1)
        assert dd.canonical_key() == d.canonical_key()
        assert dd.is_alternating() == d.is_alternating()
        assert dd.oriented().writhe() == d.oriented().writhe()

    def test_map_unchanged(self):
        d = fig8()
        assert len(d.crossing_change(2).faces()) == len(d.faces())

    def test_unknots_trefoil(self):
        d = trefoil().crossing_change(0)
        s = d.simplify()
        assert s.n == 0 and s.free_loops == 1

    def test_hopf_change_gives_unlink(self):
        d = hopf().crossing_change(0)
        s = d.simplify()
        assert s.n == 0 and s.free_loops == 2


class TestOrientations:
    def test_counts(self):
        assert len(UNKNOT.orientations()) == 1
        assert len(trefoil().orientations()) == 1
        assert len(hopf().orientations()) == 2

    def test_order(self):
        # bit i of the position picks component i + 1's second direction
        from qalinks.montesinos import compile_montesinos
        d = compile_montesinos(0, [[2], [2], [2], [2]])
        pairs = d.strand_orbit_pairs()
        got = d.orientations()
        assert len(got) == 8 and got[0] == d.oriented()
        for mask, o in enumerate(got):
            want = pairs[0][0].union(*(b if mask >> i & 1 else a
                                       for i, (a, b) in enumerate(pairs[1:])))
            assert o.orientation == want

    def test_requires_orientation(self):
        with pytest.raises(UnorientedDiagram):
            trefoil().writhe()

    def test_oriented_follows_hints(self):
        d = hopf()
        (a0, b0), (a1, b1) = d.strand_orbit_pairs()
        assert d.oriented().orientation == a0 | a1
        # only the second direction of the second component holds a hint
        assert d.oriented({min(b1)}).orientation == a0 | b1
        assert d.oriented(b0 | b1).orientation == b0 | b1
        # both directions hold one: the first direction is taken
        assert d.oriented({min(a1), min(b1)}).orientation == a0 | a1
        assert d.oriented(a0 | b0 | b1).orientation == a0 | b1

    def test_oriented_resolution_keeps_crossing_signs(self):
        from qalinks.montesinos import compile_montesinos
        for d in (positive_trefoil(), fig8().oriented(),
                  *compile_montesinos(0, [[2], [2], [2]]).orientations()):
            for c in range(d.n):
                d0, _ = d.resolve_oriented(c)
                d0.validate()
                assert [d0.crossing_sign(k) for k in range(d0.n)] == \
                    [d.crossing_sign(k) for k in range(d.n) if k != c]


def _assert_frozen(x):
    if isinstance(x, Coloring):
        with pytest.raises(FrozenInstanceError):
            x.colors = ()
        for part in (x.faces, x.colors, x.unbounded, x.face_of):
            _assert_frozen(part)
    elif isinstance(x, (tuple, frozenset)):
        for part in x:
            _assert_frozen(part)
    else:
        assert isinstance(x, int)


class TestDerivedStructures:
    def test_immutable_and_outside_identity(self):
        d = positive_trefoil()
        twin = Diagram(d.pairing, d.free_loops, d.orientation)
        before = (hash(d), repr(d))
        derived = (d.faces(), d.checkerboard(), d.pieces(),
                   d.strand_orbit_pairs(), d.seifert_circles())
        assert (hash(d), repr(d)) == before
        assert d == twin and hash(d) == hash(twin) and repr(d) == repr(twin)
        _assert_frozen(derived)
        assert d.faces() is derived[0] and d.checkerboard() is derived[1]

    def test_each_structure_walked_once_per_diagram(self, raw_walks):
        from qalinks.cli import Request, parse, run, to_diagram
        from qalinks.qa import certify
        assert certify(to_diagram(parse("CF[2, -3, 2, -3]"))).certified
        for command, label in (("invariants", "P(3, -2, 5, 3)"),
                               ("invariants", "M(1; 1/3, 1/3, -2/5)"),
                               ("classify-sqp", "M(0; -1/2, -1/2, -1/3)"),
                               ("classify-sqp", "R(7/17)")):
            run(Request(command, label))
        run(Request("invariants", "P(3, -2, 5, 3)", oracle=True))
        walked = {name for name, _ in raw_walks}
        assert walked == {"faces", "checkerboard", "pieces",
                          "strand_orbit_pairs", "seifert_circles"}
        assert max(raw_walks.values()) == 1


class TestSigns:
    def test_trefoil_uniform(self):
        d = trefoil().oriented()
        signs = {d.crossing_sign(c) for c in range(3)}
        assert len(signs) == 1
        assert abs(d.writhe()) == 3

    def test_mirror_negates(self):
        d = positive_trefoil()
        assert d.writhe() == 3
        assert d.mirror().writhe() == -3
        for c in range(3):
            assert d.mirror().crossing_sign(c) == -d.crossing_sign(c)

    def test_mirror_is_every_crossing_changed(self):
        from qalinks.cli import parse, to_diagram
        cases = [trefoil(), fig8(), hopf(), KINK, UNKNOT,
                 Diagram(fig8().pairing, free_loops=2)]
        cases += hopf().orientations() + [positive_trefoil()]
        cases.append(to_diagram(parse("P(3, -2, 5, 3)")).oriented())
        for d in cases:
            changed = d
            for c in range(d.n):
                changed = changed.crossing_change(c)
            assert d.mirror() == changed

    def test_hopf_writhes(self):
        ws = {o.writhe() for o in hopf().orientations()}
        assert ws == {2, -2}

    def test_fig8_writhe_zero(self):
        assert fig8().oriented().writhe() == 0


class TestSeifert:
    def test_trefoil(self):
        d = trefoil().oriented()
        s, w = d.seifert_state()
        assert s == 2 and abs(w) == 3
        assert d.seifert_genus_diagram() == Rational(1)

    def test_fig8(self):
        d = fig8().oriented()
        s, _ = d.seifert_state()
        assert s == 3
        assert d.seifert_genus_diagram() == Rational(1)

    def test_unknot(self):
        d = UNKNOT.oriented()
        assert d.seifert_state() == (1, 0)
        assert d.seifert_genus_diagram() == Rational(0)

    def test_hopf_genus_zero(self):
        for o in hopf().orientations():
            assert o.seifert_genus_diagram() == Rational(0)

    def test_genus_nonnegative_integer_under_changes(self):
        rng = random.Random(11)
        for _ in range(50):
            d = fig8()
            for _ in range(rng.randint(0, 4)):
                d = d.crossing_change(rng.randrange(d.n))
            g = d.oriented().seifert_genus_diagram()
            assert g.is_integer and g.num >= 0


class TestSimplify:
    def test_kink(self):
        s = KINK.simplify()
        assert s.n == 0 and s.free_loops == 1

    def test_trefoil_reduced(self):
        assert trefoil().simplify() == trefoil()

    def test_components_preserved(self):
        rng = random.Random(5)
        for _ in range(60):
            d = fig8()
            ops = rng.randint(0, 3)
            for _ in range(ops):
                if d.n == 0:
                    break
                c = rng.randrange(d.n)
                d = d.resolve(c, rng.choice(("zero", "infinity")))
            assert d.simplify().components == d.components
            d.simplify().validate()


class TestClassify:
    def test_trefoil(self):
        assert trefoil().is_alternating()
        assert not trefoil().is_split()
        assert positive_trefoil().is_positive()
        assert positive_trefoil().is_special()

    def test_fig8_not_positive(self):
        assert fig8().is_alternating()
        for o in fig8().orientations():
            assert not o.is_positive() and not o.is_negative()

    def test_crossing_change_breaks_alternation(self):
        assert not trefoil().crossing_change(0).is_alternating()


class TestCanonicalKey:
    def test_relabeling_invariance(self):
        a = from_pd(TREFOIL_PD)
        shuffled = [TREFOIL_PD[2], TREFOIL_PD[0], TREFOIL_PD[1]]
        relabel = {1: 9, 2: 12, 3: 7, 4: 30, 5: 2, 6: 5}
        shuffled = [tuple(relabel[x] for x in t) for t in shuffled]
        b = from_pd(shuffled)
        assert a.canonical_key() == b.canonical_key()

    def test_distinct_links(self):
        keys = {d.canonical_key() for d in (trefoil(), fig8(), hopf())}
        assert len(keys) == 3

    def test_unknot_fixed(self):
        assert UNKNOT.canonical_key() == Diagram((), free_loops=1).canonical_key()

    def test_reflection_invariance(self):
        # a planar reflection (same over/under) is quotiented out by design
        d = trefoil()
        refl = Diagram(d._reflected_pairing())
        refl.validate()
        assert d.canonical_key() == refl.canonical_key()
