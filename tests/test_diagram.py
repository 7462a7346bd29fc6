import random
from dataclasses import FrozenInstanceError
from itertools import compress, count

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qalinks.diagram import (
    BLACK,
    WHITE,
    Coloring,
    Diagram,
    MalformedDiagram,
    UnorientedDiagram,
    UNKNOT,
    _ORIENTED_STRUCTURES,
    from_pd,
)
from test_canonical_key import CORPUS, relabel

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


def departures(o: Diagram) -> tuple[int, ...]:
    """The half-edges the orientation of ``o`` departs by, in order."""
    return tuple(compress(count(), o.orientation))


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

    def test_orientation_set_rejected(self):
        d = trefoil().oriented()
        with pytest.raises(MalformedDiagram, match="flag"):
            Diagram(d.pairing, 0, frozenset(departures(d))).validate()

    def test_short_orientation_rejected(self):
        d = trefoil().oriented()
        with pytest.raises(MalformedDiagram, match="flag"):
            Diagram(d.pairing, 0, d.orientation[:-1]).validate()

    def test_orientation_entry_two_rejected(self):
        # 2 where the strand departs still differs from every arrival
        d = trefoil().oriented()
        twos = bytes(2 * f for f in d.orientation)
        with pytest.raises(MalformedDiagram, match="flag"):
            Diagram(d.pairing, 0, twos).validate()

    def test_local_rules_are_complete(self):
        # every orientation and its reverse pass; flipping one flag, both
        # ends of an arc or both ends of a strand at its crossing breaks
        # one direction per component, and the last two each break only
        # one of the two local rules
        from qalinks.cli import corpus_inputs, parse, to_diagram
        diagrams = [d for d in map(to_diagram, map(parse, corpus_inputs(0)))
                    if d.is_connected()][::5]
        assert len(diagrams) == 44
        checked = 0
        for d in diagrams:
            for o in d.orientations():
                f = o.orientation
                for flags in (f, bytes(1 - x for x in f)):
                    Diagram(o.pairing, o.free_loops, flags).validate()
                for h, p in enumerate(o.pairing):
                    for flipped in ({h}, {h, p}, {h, h ^ 2}):
                        bad = bytes(x ^ (g in flipped)
                                    for g, x in enumerate(f))
                        with pytest.raises(MalformedDiagram):
                            Diagram(o.pairing, o.free_loops, bad).validate()
                        checked += 1
        assert checked > 10_000


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
            idx = {h: i for i, f in enumerate(d.faces()) for h in f}
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


def _beside(d: Diagram, c: int, k: int) -> int:
    """A half-edge of corner k's face (that of half-edge 4c+k+1, mod 4) at
    another crossing, labelled as in a smoothing of c."""
    h = 4 * c + (k + 1) % 4
    while h // 4 == c:
        p = d.pairing[h]
        h = p - p % 4 + (p + 1) % 4
    return h - 4 * (h // 4 > c)


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

    def test_smoothing_merges_corner_faces(self):
        # corner k of crossing c is the face of half-edge 4c+k+1 (mod 4);
        # "zero" merges corners 0 and 2, "infinity" corners 1 and 3, and
        # "zero" merges the white corners exactly when the Goeritz sign,
        # the sign of c's white Tait edge, is -1
        from qalinks.montesinos import compile_montesinos
        merged = {"zero": (0, 2), "infinity": (1, 3)}
        for d in (trefoil(), fig8(), compile_montesinos(0, [[2], [3], [7]])):
            col = d.checkerboard()
            goeritz = {e.crossing: e.sign for e in d.white_graph().edges}
            for c in range(d.n):
                for kind, (a, b) in merged.items():
                    face_of = {h: i for i, f in
                               enumerate(d.resolve(c, kind).faces())
                               for h in f}
                    same = [face_of[_beside(d, c, k)]
                            == face_of[_beside(d, c, k + 2)] for k in (0, 1)]
                    assert same == [a == 0, a == 1], (c, kind)
                    white = col.colors[col.face_of[4 * c + a + 1]] == WHITE
                    assert white == ((goeritz[c] == -1) == (kind == "zero"))

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
            assert departures(o) == tuple(sorted(want))

    def test_requires_orientation(self):
        with pytest.raises(UnorientedDiagram):
            trefoil().writhe()

    def test_oriented_follows_hints(self):
        d = hopf()
        (a0, b0), (a1, b1) = d.strand_orbit_pairs()
        assert departures(d.oriented()) == tuple(sorted(a0 | a1))
        # only the second direction of the second component holds a hint
        assert departures(d.oriented({min(b1)})) == tuple(sorted(a0 | b1))
        assert departures(d.oriented(b0 | b1)) == tuple(sorted(b0 | b1))
        # both directions hold one: the first direction is taken
        assert departures(d.oriented({min(a1), min(b1)})) == \
            tuple(sorted(a0 | a1))
        assert departures(d.oriented(a0 | b0 | b1)) == tuple(sorted(a0 | b1))

    def test_oriented_resolution_matches_shifted_departures(self):
        # reference: resolve the unoriented twin, then orient it by the
        # departures off c, those past c moved down one crossing
        from qalinks.cli import corpus_inputs, parse, to_diagram
        for label in corpus_inputs(0):
            o = to_diagram(parse(label)).oriented()
            twin = Diagram(o.pairing, o.free_loops)
            for c in range(o.n):
                kept = (h - 4 if h > 4 * c else h for h in departures(o)
                        if h // 4 != c)
                kind = "zero" if o.crossing_sign(c) == 1 else "infinity"
                want = twin.resolve(c, kind).oriented(kept)
                assert o.resolve_oriented(c)[0] == want, (label, c)

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
        for part in (x.colors, x.unbounded, x.face_of):
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
        from qalinks.cli import parse, run, to_diagram
        from qalinks.qa import certify
        assert certify(to_diagram(parse("CF[2, -3, 2, -3]"))).certified
        for command, label in (("invariants", "P(3, -2, 5, 3)"),
                               ("invariants", "M(1; 1/3, 1/3, -2/5)"),
                               ("classify-sqp", "M(0; -1/2, -1/2, -1/3)"),
                               ("classify-sqp", "R(7/17)")):
            run(command, label)
        run("invariants", "P(3, -2, 5, 3)", oracle=True)
        walked = {name for name, _ in raw_walks}
        assert walked == {"faces", "checkerboard", "pieces",
                          "strand_orbit_pairs", "seifert_circles",
                          "white_graph", "_canonical", "sweep_order"}
        assert max(raw_walks.values()) == 1

    def test_invariants_walks_white_graph_once_per_map(self, pairing_walks):
        # the Goeritz matrix, the correction mu and the special-diagram
        # test share one white Tait graph per map, whatever its orientation
        from qalinks.cli import run
        for label in ("P(3, -2, 5, 3)", "CF[2, 3, 2, -3, 2]", "R(7/17)",
                      "M(1; 1/3, 1/3, -2/5)"):
            run("invariants", label)
        graphs = [n for (name, _), n in pairing_walks.items()
                  if name == "white_graph"]
        assert graphs and max(graphs) == 1

    def test_report_orientation_walks_nothing_again(self, pairing_walks):
        # the report orientation inherits what its unoriented twin derived;
        # only the Seifert circles depend on the orientation
        from qalinks.cli import run
        for label in ("P(2,2,2)", "P(3,-2,5,3)", "CF[2,3,2,-3,2]"):
            run("invariants", label)
        walked = {name for name, _ in pairing_walks}
        assert walked >= {"faces", "checkerboard", "pieces",
                          "strand_orbit_pairs"}
        assert max(n for (name, _), n in pairing_walks.items()
                   if name not in _ORIENTED_STRUCTURES) == 1


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


def _merges_white_by_faces(o: Diagram, c: int) -> bool:
    """Whether the orientation smoothing at c joins c's two white corner
    faces, read off the faces of ``o.resolve_oriented(c)[0]``."""
    col = o.checkerboard()
    k = 0 if col.colors[col.face_of[4 * c + 1]] == WHITE else 1
    face_of = {h: i for i, f in enumerate(o.resolve_oriented(c)[0].faces())
               for h in f}
    return face_of[_beside(o, c, k)] == face_of[_beside(o, c, k + 2)]


def _nugatory(d: Diagram, c: int) -> bool:
    """Two opposite corners of c lie in one face, so both smoothings keep
    them together; a corner face at c alone (a kink) is one such case."""
    idx = d.checkerboard().face_of
    return any(idx[4 * c + k + 1] == idx[4 * c + (k + 3) % 4] for k in (0, 1))


def _assert_type_from_signs(o: Diagram) -> int:
    """The orientation smoothing at each crossing c of ``o`` merges its
    white corners exactly when the Goeritz sign times the crossing sign is
    -1, and ``o`` is special exactly when the smoothings all merge one
    color; returns how many crossings were checked (nugatory ones are not,
    and then neither is ``is_special``)."""
    merges = {e.crossing: _merges_white_by_faces(o, e.crossing)
              for e in o.white_graph().edges if not _nugatory(o, e.crossing)}
    assert merges == {e.crossing: e.sign * o.crossing_sign(e.crossing) == -1
                      for e in o.white_graph().edges if e.crossing in merges}
    if len(merges) == o.n:
        assert o.is_special() == (len(set(merges.values())) <= 1)
    return len(merges)


class TestGordonLitherlandType:
    """A crossing's Gordon-Litherland type, read off the signed white Tait
    graph, against the faces of its orientation smoothing."""

    def test_corpus_orientations(self):
        from qalinks.cli import corpus_inputs, parse, to_diagram
        checked, special = 0, set()
        for label in corpus_inputs(0):
            for o in to_diagram(parse(label)).orientations()[:8]:
                checked += _assert_type_from_signs(o)
                special.add(o.is_special())
        assert checked == 4972  # every (orientation, crossing) pair
        assert special == {False, True}

    def test_fig8_is_not_special(self):
        # a special alternating diagram is positive or negative
        assert not fig8().oriented().is_special()
        assert positive_trefoil().mirror().is_special()

    @given(st.data())
    def test_relabelings(self, data):
        d = data.draw(st.sampled_from(CORPUS))
        perm = data.draw(st.permutations(range(d.n)))
        rot = data.draw(st.lists(st.sampled_from((0, 2)),
                                 min_size=d.n, max_size=d.n))
        moved = relabel(d, perm, rot, data.draw(st.booleans()))
        flips = data.draw(st.lists(st.booleans(), min_size=moved.components,
                                   max_size=moved.components))
        o = moved.oriented(h for (_, b), f in
                           zip(moved.strand_orbit_pairs(), flips) if f
                           for h in b)
        assert _assert_type_from_signs(o) > 0


class TestSeifert:
    def test_trefoil(self):
        d = trefoil().oriented()
        assert len(d.seifert_circles()) == 2 and abs(d.writhe()) == 3
        assert d.seifert_genus_diagram() == 1

    def test_fig8(self):
        d = fig8().oriented()
        assert len(d.seifert_circles()) == 3
        assert d.seifert_genus_diagram() == 1

    def test_unknot(self):
        d = UNKNOT.oriented()
        assert (len(d.seifert_circles()) + d.free_loops, d.writhe()) == (1, 0)
        assert d.seifert_genus_diagram() == 0

    def test_hopf_genus_zero(self):
        for o in hopf().orientations():
            assert o.seifert_genus_diagram() == 0

    def test_genus_nonnegative_integer_under_changes(self):
        rng = random.Random(11)
        for _ in range(50):
            d = fig8()
            for _ in range(rng.randint(0, 4)):
                d = d.crossing_change(rng.randrange(d.n))
            g = d.oriented().seifert_genus_diagram()
            assert isinstance(g, int) and g >= 0

    def test_reoriented_copy_has_no_stale_circle_index(self):
        # the circle index the walk leaves in the cache depends on the
        # orientation, so a copy oriented another way must not inherit it
        from qalinks.montesinos import compile_montesinos
        first, *others = compile_montesinos(0, [[2], [2], [2]]).orientations()
        first.seifert_circles()
        changed = 0
        for o in others:
            copy = first.oriented(departures(o))
            assert copy == o and "circle_of" not in copy._cache
            circles = copy.seifert_circles()
            assert copy._cache["circle_of"] == tuple(
                next((k for k, circ in enumerate(circles) if h in circ), -1)
                for h in range(len(copy.pairing)))
            changed += circles != first.seifert_circles()
        assert changed == len(others) == 3


def _with_r2(d: Diagram, h1: int, h2: int) -> Diagram:
    """d with the arc leaving h1 pushed over the arc leaving h2, two arcs
    of one face orbit: a cancelling R2 pair at crossings n, n + 1."""
    n = d.n
    pairing = list(d.pairing) + [0] * 8
    p1, p2 = pairing[h1], pairing[h2]

    def pair(a, b):
        pairing[a] = b
        pairing[b] = a

    x, y = 4 * n, 4 * n + 4
    pair(h2, x)
    pair(x + 2, y)
    pair(y + 2, p2)
    pair(h1, y + 1)
    pair(y + 3, x + 3)
    pair(x + 1, p1)
    return Diagram(tuple(pairing), d.free_loops)


def _with_kink(d: Diagram, h: int) -> Diagram:
    """d with an R1 kink at crossing n on the arc leaving h."""
    q = 4 * d.n
    pairing = list(d.pairing) + [0] * 4
    p = pairing[h]
    for a, b in ((h, q + 2), (q, q + 1), (q + 3, p)):
        pairing[a] = b
        pairing[b] = a
    return Diagram(tuple(pairing), d.free_loops)


class TestSimplify:
    def test_kink(self):
        s = KINK.simplify()
        assert s.n == 0 and s.free_loops == 1

    def test_trefoil_reduced(self):
        assert trefoil().simplify() == trefoil()

    def test_oriented_input_keeps_crossing_signs(self):
        # P(3,3,3,3) with an R2 pair (crossings 12, 13) across its largest
        # face and a kink (crossing 14) on that face: simplify removes
        # exactly those and keeps crossings 0-11 in order
        from qalinks.cli import parse, to_diagram
        base = to_diagram(parse("P(3,3,3,3)"))
        f = max(base.faces(), key=len)
        d = _with_kink(_with_r2(base, f[0], f[2]), f[1])
        d.validate()
        s = d.simplify()
        assert s == base and s.orientation is None
        for o in d.orientations():
            s = o.simplify()
            s.validate()
            assert s.pairing == base.pairing and s.orientation is not None
            assert [s.crossing_sign(c) for c in range(s.n)] == \
                [o.crossing_sign(c) for c in range(base.n)]

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
        from qalinks.invariants import (find_negative_orientation,
                                        find_positive_orientation)
        assert trefoil().is_alternating()
        assert not trefoil().is_split()
        assert find_positive_orientation(positive_trefoil()) == \
            positive_trefoil()
        assert find_negative_orientation(positive_trefoil()) is None
        assert positive_trefoil().is_special()

    def test_fig8_not_positive(self):
        from qalinks.invariants import (find_negative_orientation,
                                        find_positive_orientation)
        assert fig8().is_alternating()
        assert find_positive_orientation(fig8()) is None
        assert find_negative_orientation(fig8()) is None

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


def surgery(d, removed, joins):
    """Reference: delete the crossings in ``removed``, whose slots
    ``joins`` connect pairwise, on a fresh pairing built by following
    every trail; closed internal cycles become free loops, and an
    oriented diagram's result is oriented by its surviving departures."""
    join_of = {}
    for a, b in joins:
        join_of[a], join_of[b] = b, a
    shift, gone = [], 0  # None marks a removed crossing
    for c in range(d.n):
        shift.append(None if c in removed else gone)
        gone += 4 * (c in removed)
    pairing, reached = [], set()
    for h, p in enumerate(d.pairing):
        if shift[h >> 2] is None:
            continue
        while shift[p >> 2] is None:
            reached |= {p, join_of[p]}
            p = d.pairing[join_of[p]]
        pairing.append(p - shift[p >> 2])
    loops, left = 0, set(join_of) - reached
    while left:
        h = next(iter(left))
        while h in left:
            left -= {h, join_of[h]}
            h = d.pairing[join_of[h]]
        loops += 1
    out = Diagram(tuple(pairing), d.free_loops + loops)
    if d.orientation is None:
        return out
    return out.oriented(h - shift[h >> 2] for h in departures(d)
                        if shift[h >> 2] is not None)


def find_r2(d):
    """Reference: the first cancelling bigon face (c, j, dd, k) in face
    order, the strand entering c on slot j+1 leaving at dd's slot k."""
    for f in d.faces():
        if len(f) == 2:
            (c, j1), (dd, k1) = divmod(f[0], 4), divmod(f[1], 4)
            if j1 % 2 != k1 % 2:
                return c, (j1 - 1) % 4, dd, (k1 - 1) % 4
    return None


def least_first_simplify(d):
    """The loop one-pass kink removal replaced, on fresh pairings: one
    ``surgery`` per R1 kink, the least crossing and slot first, then one
    per R2 pair."""
    while True:
        kink = next(((h >> 2, h & 3) for h, p in enumerate(d.pairing)
                     if p == 4 * (h >> 2) + (h + 1) % 4), None)
        if kink is not None:
            c, a = kink
            d = surgery(d, {c}, [(4 * c + (a + 1) % 4, 4 * c + (a + 2) % 4),
                                 (4 * c + (a + 3) % 4, 4 * c + a)])
            continue
        r2 = find_r2(d)
        if r2 is None:
            return d
        c, j, dd, k = r2
        d = surgery(d, {c, dd}, [(4 * c + (j + 1) % 4, 4 * c + (j + 3) % 4),
                                 (4 * c + j, 4 * c + (j + 2) % 4),
                                 (4 * dd + k, 4 * dd + (k + 2) % 4),
                                 (4 * dd + (k + 1) % 4, 4 * dd + (k + 3) % 4)])


class TestOnePassKinks:
    """``simplify`` against the least-first loop, on resolutions whose
    kinks chain along twist regions and on crossing changes that make R2
    pairs."""

    def diagrams(self):
        from qalinks.cli import parse, to_diagram
        rng = random.Random(43)
        bases = CORPUS[::9] + [to_diagram(parse(t)) for t in
                               ("P(12,3,3)", "CF[7, -5, 4]", "P(3,-2,5,3)")]
        for base in bases:
            for d in (base, rng.choice(base.orientations())):
                for _ in range(6):
                    r = d
                    for _ in range(rng.randint(1, 3)):
                        if r.n == 0:
                            break
                        c = rng.randrange(r.n)
                        r = (r.crossing_change(c) if rng.random() < 0.3
                             else r.resolve(c, rng.choice(("zero",
                                                           "infinity"))))
                    yield r

    def test_matches_least_first(self):
        moved = 0
        for d in self.diagrams():
            s = d.simplify()
            want = least_first_simplify(d)
            assert s == want and s.orientation == want.orientation
            moved += s.n < d.n
        assert moved > 100

    def test_unchanged_diagram_is_returned(self):
        d = trefoil()
        assert d.simplify() is d


class TestCrossingSign:
    def test_matches_departure_rule(self):
        # +1 when the over strand leaves one slot after the under strand
        for d in CORPUS[::11]:
            for o in d.orientations():
                for c in range(o.n):
                    # the under strand leaves by slot 0 or 2, the over
                    # strand by slot 1 or 3
                    deps = departures(o)
                    u = 0 if 4 * c in deps else 2
                    v = 1 if 4 * c + 1 in deps else 3
                    assert 4 * c + u in deps and 4 * c + v in deps
                    assert o.crossing_sign(c) == (1 if (v - u) % 4 == 1
                                                  else -1)
