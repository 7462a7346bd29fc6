import ast
import inspect
import random

import pytest

from qalinks import seifert_oracle
from qalinks.diagram import Diagram
from qalinks.invariants import det_signature_exact, determinant, signature
from qalinks.montesinos import compile_montesinos, compile_rational
from qalinks.seifert_oracle import (
    OracleError,
    braid_word,
    det_oracle,
    seifert_form,
    seifert_form_from_word,
    signature_oracle,
    split_form_from_word,
    to_braid_form,
)

from braids import braid_closure
from test_diagram import departures


class TestBraidClosure:
    def test_positive_trefoil(self):
        d = braid_closure([(0, 1)] * 3)
        assert d.n == 3 and d.components == 1
        assert d.writhe() == 3
        assert determinant(d) == 3 and signature(d) == -2

    def test_fig8(self):
        d = braid_closure([(0, 1), (1, -1)] * 2)
        assert determinant(d) == 5 and signature(d) == 0

    def test_torus_2_4(self):
        d = braid_closure([(0, 1)] * 4)
        assert d.components == 2
        assert determinant(d) == 4 and signature(d) == -3

    def test_identity_braid_unknots(self):
        d = braid_closure([], strands=1)
        assert d.n == 0 and d.components == 1

    def test_bad_letter(self):
        with pytest.raises(OracleError):
            braid_closure([(5, 1)], strands=2)


class TestSeifertForm:
    def test_trefoil_form(self):
        m = seifert_form_from_word([(0, 1)] * 3)
        assert len(m) == 2
        assert abs(determinant_of(m)) == 3

    def test_matches_diagram_route(self):
        word = [(0, 1), (1, -1), (0, 1), (1, -1)]
        d = braid_closure(word)
        assert seifert_form(d) is not None
        assert det_oracle(d) == determinant(d)
        assert signature_oracle(d) == signature(d)

    def test_visited_pairs_give_the_all_pairs_form(self):
        rng = random.Random(11)
        for _ in range(300):
            strands = rng.randint(2, 6)
            word = [(rng.randrange(strands - 1), rng.choice((1, -1)))
                    for _ in range(rng.randint(0, 24))]
            assert seifert_form_from_word(word) == all_pairs_form(word)


def last_nonzero(row):
    return max((j for j, x in enumerate(row) if x), default=-1)


def planted_word(rng):
    """A random braid word with some cancelling pairs s_i s_i^-1 planted in
    it: each adds a generator with a zero diagonal entry."""
    strands = rng.randint(2, 6)
    word = [(rng.randrange(strands - 1), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 20))]
    for _ in range(rng.randint(0, 6)):
        i, e = rng.randrange(strands - 1), rng.choice((1, -1))
        at = rng.randint(0, len(word))
        word[at:at] = [(i, e), (i, -e)]
    return word


class TestHyperbolicSplit:
    def test_kept_form_gives_the_full_forms_det_and_signature(self):
        rng = random.Random(29)
        leaves = chains = 0
        for _ in range(400):
            word = planted_word(rng)
            full = seifert_form_from_word(word)
            factor, rows, ends = split_form_from_word(word)
            det, sig = det_signature_exact(full)
            kept_det, kept_sig = det_signature_exact(rows)
            assert (factor * kept_det, kept_sig) == (det, sig), word
            assert det_signature_exact(rows, ends) == (kept_det, kept_sig)
            assert ends == [last_nonzero(row) for row in rows]
            # more planes than leaf rows at the start: some leaf appeared
            # only when an earlier plane took its other entries, a chain
            start = sum(1 for g, row in enumerate(full) if not row[g]
                        and sum(1 for x in row if x) == 1)
            planes = (len(full) - len(rows)) // 2
            leaves += start > 0
            chains += planes > start
        assert leaves > 300 and chains > 150

    @pytest.mark.parametrize("word", [[], [(0, 1)], [(2, -1)],
                                      [(0, 1), (0, -1)]])
    def test_small_words(self, word):
        full = seifert_form_from_word(word)
        factor, rows, ends = split_form_from_word(word)
        assert factor * det_signature_exact(rows)[0] == \
            det_signature_exact(full)[0]
        assert len(rows) == len(ends) <= len(full) <= 1

    def test_one_strand(self):
        d = braid_closure([], strands=1)
        assert det_oracle(d) == 1 and signature_oracle(d) == 0

    @pytest.mark.parametrize("k, dim, kept", [(4, 76, 10), (8, 296, 22)])
    def test_kept_dimension_on_oracle_forms(self, k, dim, kept):
        word, _ = braid_word(compile_rational([2, -3] * k).oriented())
        assert len(seifert_form_from_word(word)) == dim
        assert len(split_form_from_word(word)[1]) == kept


def all_pairs_form(word):
    """V + V^T of the braid closure of ``word`` by the linking rule applied
    to every pair of generators, in any order."""
    occ = {}
    for pos, (i, sign) in enumerate(word):
        occ.setdefault(i, []).append((pos, sign))
    gens = [(i, a, b) for i in sorted(occ)
            for a, b in zip(occ[i], occ[i][1:])]
    m = [[0] * len(gens) for _ in gens]
    for g, (i, (a, ea), (b, eb)) in enumerate(gens):
        for h, (j, (c, ec), (dd, _)) in enumerate(gens):
            if g == h:
                m[g][h] = -(ea + eb)
            elif i == j and c == b:
                m[g][h] = m[h][g] = eb
            elif j == i + 1:
                if a < c < b < dd:
                    m[g][h] = m[h][g] = seifert_oracle._S_X_FIRST
                elif c < a < dd < b:
                    m[g][h] = m[h][g] = seifert_oracle._S_Y_FIRST
    return m


def determinant_of(m):
    from qalinks.invariants import det_exact
    return det_exact(m)


class TestBraiding:
    def test_already_braided_fixed_point(self):
        d = braid_closure([(0, 1)] * 3)
        b = to_braid_form(d)
        assert b.n == d.n  # no moves needed on a closed braid

    def test_word_roundtrip(self):
        word = [(0, 1), (1, 1), (0, 1), (1, 1)]
        d = braid_closure(word)
        w2, s = braid_word(d)
        assert s == 3 and len(w2) == 4
        assert sorted(x for _, x in w2) == [1, 1, 1, 1]

    def test_vogel_moves_terminate(self):
        d = compile_montesinos(2, [[-2], [-2, -2], [-2, -2]]).oriented()
        b = to_braid_form(d)
        word, s = braid_word(d)
        assert b.n == len(word)
        assert s == len(b.seifert_circles())

    def test_disconnected_rejected(self):
        with pytest.raises(OracleError):
            braid_word(Diagram((), free_loops=2).oriented())

    def test_push_cap_grows_with_input(self):
        # n = 70 needs 434 pushes, past any fixed cap of a few hundred
        d = compile_rational([2, -3] * 14).oriented()
        word, s = braid_word(d)
        assert braid_closure(word, s).writhe() == d.writhe()

    def test_push_without_shared_face_refused(self):
        # arcs with no face in common cannot be pushed across each other:
        # the one wiring built is not planar, which the oracle reports as
        # its own error rather than a MalformedDiagram
        d = compile_montesinos(2, [[-2], [-2, -2], [-2, -2]]).oriented()
        fidx = {h: i for i, f in enumerate(d.faces()) for h in f}
        faces = {h: {fidx[h], fidx[d.pairing[h]]} for h in departures(d)}
        pushes = [(h1, h2, side)
                  for h1 in departures(d)
                  for h2 in departures(d)
                  if h1 != h2 and not faces[h1] & faces[h2]
                  for side in (0, 1)]
        assert len(pushes) == 796
        for push in pushes:
            with pytest.raises(OracleError, match="no planar"):
                seifert_oracle._Braiding(d).push(*push)

    def test_push_within_one_circle_refused(self):
        # two arcs of one Seifert circle on a face side: the push is planar
        # but splits the circle, which the circle count reports
        d = compile_montesinos(2, [[-2], [-2, -2], [-2, -2]]).oriented()
        state = seifert_oracle._Braiding(d)
        refused = allowed = 0
        for f, side in sorted((f, side) for f in state.orbit
                              for side in (0, 1)):
            deps = [h for h in departures(d)
                    if state.face_of[h if side == 0 else d.pairing[h]] == f]
            for h1 in deps:
                for h2 in deps:
                    if h1 == h2:
                        continue
                    if state.circle_of[h1] == state.circle_of[h2]:
                        with pytest.raises(OracleError, match="Seifert circles"):
                            seifert_oracle._Braiding(d).push(h1, h2, side)
                        refused += 1
                    else:
                        seifert_oracle._Braiding(d).push(h1, h2, side)
                        allowed += 1
        assert (refused, allowed) == (66, 10)

    @staticmethod
    def _count_calls(monkeypatch, method, d):
        """Calls of Diagram.<method> during one braiding, and its pushes."""
        calls = []
        original = getattr(Diagram, method)
        monkeypatch.setattr(Diagram, method,
                            lambda self: calls.append(1) or original(self))
        b = to_braid_form(d)
        monkeypatch.setattr(Diagram, method, original)
        return len(calls), (b.n - d.n) // 2

    # 0, 2, 6, 19 and 54 pushes
    BRAIDED = [braid_closure([(0, 1)] * 3),
               compile_rational([2, -2, 2, -2]).oriented(),
               compile_montesinos(2, [[-2], [-2, -2], [-2, -2]]).oriented(),
               compile_rational([2, -3] * 3).oriented(),
               compile_rational([2, -3] * 5).oriented()]

    def test_two_validations_per_braiding(self, monkeypatch):
        # the input and the braid form, whatever the push count
        counts = [self._count_calls(monkeypatch, "validate", d)
                  for d in self.BRAIDED]
        assert len({pushes for _, pushes in counts}) == len(counts)
        assert all(calls == 2 for calls, _ in counts)

    def test_faces_walked_a_bounded_number_of_times(self, monkeypatch):
        counts = [self._count_calls(monkeypatch, "faces", d)
                  for d in self.BRAIDED]
        assert max(pushes for _, pushes in counts) == 54
        assert all(calls <= 3 for calls, _ in counts)


def test_oracle_does_not_import_the_goeritz_route():
    """The oracle audits determinant() and signature(), so it must not
    call them."""
    tree = ast.parse(inspect.getsource(seifert_oracle))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"determinant", "signature"}


class TestOracleAgreement:
    def test_fixture_values(self):
        cases = [
            (compile_rational([2, 2]), 3),
            (compile_rational([2, -2]), 5),
            (compile_rational([2]), 2),
            (compile_montesinos(0, [[2], [3], [7]]), 41),
            (compile_montesinos(2, [[-2], [-2, -2], [-2, -2]]), 3),
        ]
        for d, det in cases:
            for o in d.orientations():
                assert det_oracle(o) == determinant(o) == det
                assert signature_oracle(o) == signature(o)

    def test_random_rational(self):
        rng = random.Random(17)
        done = 0
        while done < 12:
            entries = [rng.choice((-3, -2, 2, 3))
                       for _ in range(rng.randint(1, 4))]
            d = compile_rational(entries)
            if not d.is_connected():
                continue
            for o in d.orientations():
                assert det_oracle(o) == determinant(o)
                assert signature_oracle(o) == signature(o)
            done += 1

    def test_random_braids(self):
        rng = random.Random(23)
        for _ in range(15):
            strands = rng.randint(2, 3)
            word = [(rng.randrange(strands - 1), rng.choice((-1, 1)))
                    for _ in range(rng.randint(1, 6))]
            d = braid_closure(word, strands)
            if not d.is_connected():
                continue
            assert det_oracle(d) == determinant(d)
            assert signature_oracle(d) == signature(d)

    def test_split_at_scale(self):
        # n = 160: the braid form has 4,640 generators, and the split hands
        # the kernel 94 of them
        d = compile_rational([2, -3] * 32).oriented()
        assert det_oracle(d) == determinant(d)
        assert signature_oracle(d) == signature(d)

    def test_at_scale(self):
        # n = 65: 374 pushes and a banded Seifert matrix of dim 774, which
        # the kernel eliminates over the band, not the whole matrix
        d = compile_rational([2, -3] * 13).oriented()
        assert len(seifert_form(d)) == 774
        assert det_oracle(d) == determinant(d)
        assert signature_oracle(d) == signature(d)
