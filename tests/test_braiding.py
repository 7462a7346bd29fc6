"""The incremental braider against a braider that rebuilds the diagram on
every Vogel push.

The reference below re-derives the Seifert circles, the faces and a full
``validate`` per push.  It picks its move in the same face-side order but
may pick other arcs within a side, so a braid form can differ; its crossing
and Seifert-circle counts, and the invariants read off it, may not.
"""

import pytest

from qalinks.cli import corpus_inputs, parse, to_diagram
from qalinks.diagram import Diagram, MalformedDiagram
from qalinks.invariants import determinant, report_orientation, signature
from qalinks.seifert_oracle import (
    OracleError,
    braid_word,
    det_oracle,
    signature_oracle,
    to_braid_form,
)

from braids import reference_braid_word
from test_canonical_key import pretzel_3
from test_diagram import departures
from test_qa import cf_23


# ------------------------------------------------------------ reference

def _regions_sides(d: Diagram):
    """Face-side incidences of oriented arcs: face -> side -> [(circle, h)]."""
    circles = d.seifert_circles()
    circle_of = {h: k for k, circ in enumerate(circles) for h in circ}
    fidx = {h: i for i, f in enumerate(d.faces()) for h in f}
    buckets: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for h in departures(d):
        k = circle_of[h]
        buckets.setdefault((fidx[h], 0), []).append((k, h))
        buckets.setdefault((fidx[d.pairing[h]], 1), []).append((k, h))
    return buckets


def reference_vogel_move(d: Diagram):
    """(h1, h2, side) for the first face side holding departures of two
    distinct Seifert circles, or None in braid form."""
    for (_, side), entries in sorted(_regions_sides(d).items()):
        for idx in range(len(entries)):
            for jdx in range(idx + 1, len(entries)):
                if entries[idx][0] != entries[jdx][0]:
                    return entries[idx][1], entries[jdx][1], side
    return None


def _reference_push(d: Diagram, h1: int, h2: int, side: int) -> Diagram:
    p1, p2 = d.pairing[h1], d.pairing[h2]
    x, y = 4 * d.n, 4 * d.n + 4
    s = 1 if side == 0 else 3
    pairing = list(d.pairing) + [0] * 8
    for a, b in ((h2, x), (x + 2, y), (y + 2, p2),
                 (h1, y + s), (y + 4 - s, x + 4 - s), (x + s, p1)):
        pairing[a] = b
        pairing[b] = a
    pushed = Diagram(tuple(pairing), d.free_loops)
    try:
        pushed.validate()
    except MalformedDiagram as exc:
        raise OracleError("no planar isotopic wiring for the strand push") \
            from exc
    pushed = pushed.oriented(departures(d))
    if ((pushed.components, len(pushed.seifert_circles()))
            != (d.components, len(d.seifert_circles()))):
        raise OracleError("the strand push changed the components or the "
                          "Seifert circles")
    return pushed


def reference_braid_form(d: Diagram) -> Diagram:
    d.require_orientation()
    for _ in range(400):
        move = reference_vogel_move(d)
        if move is None:
            return d
        d = _reference_push(d, *move)
    raise OracleError("no braid form within the move budget")


# ----------------------------------------------------------------- tests

@pytest.fixture(scope="module")
def corpus_orientations():
    out = []
    for label in corpus_inputs(0):
        d = to_diagram(parse(label))
        if d.is_connected():
            out.extend((label, o) for o in d.orientations()[:64])
    return out


def test_corpus_matches_reference(corpus_orientations):
    assert len(corpus_orientations) == 344
    pushed = 0
    for label, o in corpus_orientations:
        b = to_braid_form(o)
        r = reference_braid_form(o)
        assert (b.n, len(b.seifert_circles())) == \
            (r.n, len(r.seifert_circles())), label
        assert reference_vogel_move(b) is None, label
        pushed += b.n > o.n
    assert pushed > 100


def test_corpus_oracle_matches_goeritz(corpus_orientations):
    for label, o in corpus_orientations:
        assert det_oracle(o) == determinant(o), label
        assert signature_oracle(o) == signature(o), label


# ------------------------------------------------- the word, read again

def _pieces_by_sets(d: Diagram) -> int:
    """The number of pieces of d's crossings, each found by a walk that
    takes crossings out of a set of those not reached yet."""
    left, pieces = set(range(d.n)), 0
    while left:
        pieces += 1
        stack = [left.pop()]
        while stack:
            c = stack.pop()
            for h in range(4 * c, 4 * c + 4):
                c2 = d.pairing[h] >> 2
                if c2 in left:
                    left.remove(c2)
                    stack.append(c2)
    return pieces


def test_corpus_words_match_reference():
    # the one-pass word against the circle-by-circle one, in the report
    # orientation and the first one; and the checkerboard's face index
    # and the piece count against plain rebuilds
    words = 0
    for label in corpus_inputs(0):
        d = to_diagram(parse(label))
        assert len(d.pieces()) == _pieces_by_sets(d), label
        if not d.is_connected():
            continue
        face_of = [-1] * len(d.pairing)
        for i, f in enumerate(d.faces()):
            for h in f:
                face_of[h] = i
        assert d.checkerboard().face_of == tuple(face_of), label
        for o in (report_orientation(d), d.oriented()):
            assert braid_word(o) == reference_braid_word(o), label
            words += 1
    assert words == 440


@pytest.mark.parametrize("family, k", [(cf_23, 4), (cf_23, 8), (cf_23, 16),
                                       (pretzel_3, 8), (pretzel_3, 16)])
def test_family_words_match_reference(family, k):
    o = family(k).oriented()
    assert braid_word(o) == reference_braid_word(o)
