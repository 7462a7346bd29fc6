"""The Vogel braider's move order, pinned three ways: the braid forms of
the corpus orientations by digest, the heap against a full scan of the
braider's own state at every step, and the oracle's answers under
relabelings, which drive the braider through other move orders."""

import hashlib
import random

from qalinks.cli import corpus_inputs, parse, to_diagram
from qalinks.invariants import det_and_signature, report_orientation
from qalinks.seifert_oracle import (
    _Braiding,
    det_oracle,
    signature_oracle,
    to_braid_form,
)

from test_braiding import corpus_orientations  # noqa: F401  (fixture)
from test_diagram import departures

# sha256 of repr((pairing, departures)) of every braid form, in
# fixture order
BRAID_FORMS_SHA256 = \
    "f3097bb61224d1e2fd51200c80356ea2b0120142ebc222fe27a5be5ee79ecb53"


def test_braid_forms_pinned(corpus_orientations):
    assert len(corpus_orientations) == 344
    digest = hashlib.sha256()
    for _, o in corpus_orientations:
        b = to_braid_form(o)
        digest.update(repr((b.pairing, departures(b))).encode())
    assert digest.hexdigest() == BRAID_FORMS_SHA256


def least_two_circle_side(state: _Braiding):
    """The least (face, side) whose departures lie on two circles, by a
    scan of every face the braider holds."""
    sides = []
    for f, orbit in state.orbit.items():
        circles = (set(), set())
        for g in orbit:
            if state.departs[g]:
                circles[0].add(state.circle_of[g])
            else:
                circles[1].add(state.circle_of[state.pairing[g]])
        sides.extend((f, side) for side in (0, 1) if len(circles[side]) > 1)
    return min(sides, default=None)


def test_heap_reaches_the_least_two_circle_side(corpus_orientations):
    # every next_move call, the final one that finds none included
    steps = 0
    for label, o in corpus_orientations:
        state = _Braiding(o)
        while True:
            steps += 1
            expected = least_two_circle_side(state)
            move = state.next_move()
            if move is None:
                assert expected is None, label
                break
            h1, h2, side = move
            face = state.face_of[h1 if side == 0 else state.pairing[h1]]
            assert (face, side) == expected, label
            assert state.circle_of[h1] != state.circle_of[h2], label
            state.push(*move)
    assert steps == 4536


def test_oracle_ignores_crossing_labels():
    # every fifth connected corpus label, three relabelings each: a random
    # crossing permutation with even turns keeps the map
    rng = random.Random(0)
    labels = [label for label in corpus_inputs(0)
              if to_diagram(parse(label)).is_connected()][::5]
    cases = 0
    for label in labels:
        o = report_orientation(to_diagram(parse(label)))
        expected = det_and_signature(o)
        for _ in range(3):
            relabel = [4 * c + rng.choice((0, 2))
                       for c in rng.sample(range(o.n), o.n)]
            r = o.relabeled(relabel)
            assert (det_oracle(r), signature_oracle(r)) == expected, label
            cases += 1
    assert cases == 132
