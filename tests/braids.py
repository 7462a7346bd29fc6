"""Closed-braid diagrams for the oracle and assembler tests, and a
reference reading of the braid word."""

from qalinks import montesinos
from qalinks.diagram import Diagram
from qalinks.seifert_oracle import OracleError, to_braid_form


def braid_closure(word, strands: int | None = None) -> Diagram:
    """Closed-braid diagram of a word [(index, sign), ...]; oriented.

    Letter (i, +1) makes a positive crossing between strands i and i+1
    (writhe of the closure of [(0,1)]*3 is +3).  The assembler is looked
    up when called, so a test may swap it.
    """
    if strands is None:
        strands = max((i for i, _ in word), default=-1) + 2
    asm = montesinos._Assembler()
    starts, ends = [], []
    for _ in range(strands):
        a, b = asm.wire()
        starts.append(a)
        ends.append(b)
    hints = []
    for i, sign in word:
        if not 0 <= i < strands - 1:
            raise OracleError(f"letter index {i} out of range")
        ends[i], ends[i + 1] = asm.twists(
            ends[i], ends[i + 1], 1,
            montesinos._NEG_TWIST if sign > 0 else montesinos._POS_TWIST)
        hints += ends[i], ends[i + 1]
    for a, b in zip(ends, starts):
        asm.join(a, b)
    return asm.diagram().oriented(hints)


def reference_braid_word(d: Diagram) -> tuple[list[tuple[int, int]], int]:
    """``seifert_oracle.braid_word`` read circle by circle: the word so far
    holds the bands below circle k, and circle k's other bands go into it,
    each run after the last band before it on the circle that the word
    already holds.  Quadratic in the braided crossings."""
    d = to_braid_form(d)
    departs, circles = d.orientation, d.seifert_circles()
    circle_of = {h: k for k, circ in enumerate(circles) for h in circ}
    s = len(circles)

    def crossing_circles(c: int) -> tuple[int, int]:
        under = 4 * c if departs[4 * c] else 4 * c + 2
        over = 4 * c + 1 if departs[4 * c + 1] else 4 * c + 3
        return circle_of[under], circle_of[over]

    nbrs: dict[int, set[int]] = {k: set() for k in range(s)}
    for c in range(d.n):
        a, b = crossing_circles(c)
        if a == b:
            raise OracleError("band from a circle to itself in braid form")
        nbrs[a].add(b)
        nbrs[b].add(a)
    endpoints = sorted(k for k in nbrs if len(nbrs[k]) <= 1)
    if not endpoints:
        raise OracleError("circle adjacency is not a path")
    order = [endpoints[0]]
    while len(order) < s:
        nxt = [k for k in nbrs[order[-1]] if k not in order]
        if len(nxt) != 1:
            raise OracleError("circle adjacency is not a path")
        order.append(nxt[0])
    pos = {k: i for i, k in enumerate(order)}

    def letter_index(c: int) -> int:
        a, b = crossing_circles(c)
        i, j = sorted((pos[a], pos[b]))
        if j != i + 1:
            raise OracleError("band between non-adjacent circles")
        return i

    def circle_sequence(k: int) -> list[int]:
        return [d.pairing[h] // 4 for h in circles[order[k]]]

    seq = circle_sequence(0)
    for k in range(1, s - 1):
        ring = circle_sequence(k)
        known = set(seq)
        runs: dict[int, list[int]] = {}
        # collect runs of new letters keyed by the known letter preceding them
        doubled = ring + ring
        start = next(q for q, c in enumerate(ring) if c in known)
        for c in doubled[start:start + len(ring)]:
            if c in known:
                last_known = c
            else:
                runs.setdefault(last_known, []).append(c)
        out: list[int] = []
        for c in seq:
            out.append(c)
            out.extend(runs.get(c, ()))
        seq = out
    word = [(letter_index(c), d.crossing_sign(c)) for c in seq]
    return word, s
