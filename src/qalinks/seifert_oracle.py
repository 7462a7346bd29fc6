"""Independent determinant/signature oracle via Seifert's algorithm.

An oriented diagram is brought to closed-braid form by Vogel moves
(orientation-coherent R2 pushes inside a face whose boundary carries two
same-side arcs of distinct Seifert circles).  From the braid word, the
symmetrized Seifert matrix V + V^T of the braid-closure surface is
assembled from closed-form linking rules, giving the signature and the
determinant without reference to the Goeritz form.
"""

from __future__ import annotations

from .diagram import Diagram, MalformedDiagram
from .invariants import det_exact, signature_exact

_MOVE_CAP = 400


class OracleError(RuntimeError):
    """The oracle could not process the diagram."""


# ------------------------------------------------------------ braid closure

def braid_closure(word, strands: int | None = None) -> Diagram:
    """Closed-braid diagram of a word [(index, sign), ...]; oriented.

    Letter (i, +1) makes a positive crossing between strands i and i+1
    (writhe of the closure of [(0,1)]*3 is +3).
    """
    from .montesinos import _Assembler, _POS_TWIST, _NEG_TWIST, NW, NE, SE, SW
    if strands is None:
        strands = max((i for i, _ in word), default=-1) + 2
    asm = _Assembler()
    starts, ends = [], []
    for _ in range(strands):
        a, b = asm.wire()
        starts.append(a)
        ends.append(b)
    hints = []
    for i, sign in word:
        if not 0 <= i < strands - 1:
            raise OracleError(f"letter index {i} out of range")
        c = asm.crossing()
        m = _NEG_TWIST if sign > 0 else _POS_TWIST
        asm.join(ends[i], ("x", c, m[NW]))
        asm.join(ends[i + 1], ("x", c, m[SW]))
        ends[i] = ("x", c, m[NE])
        ends[i + 1] = ("x", c, m[SE])
        hints.append(4 * c + m[NE])
        hints.append(4 * c + m[SE])
    for a, b in zip(ends, starts):
        asm.join(a, b)
    d = asm.diagram()
    return _orient_with_hint(d, set(hints))


def _orient_with_hint(d: Diagram, hints: set[int]) -> Diagram:
    sel: set[int] = set()
    for a, b in d.strand_orbit_pairs():
        if b & hints and not (a & hints):
            sel |= b
        else:
            sel |= a
    return Diagram(d.pairing, d.free_loops, frozenset(sel))


# ----------------------------------------------------- symmetrized Seifert form

# Signs of the symmetrized pairing for interleaved generators on adjacent
# braid indices, fixed by calibration against the Goeritz route on random
# braid closures (x spans positions a<b at index i, y spans c<d at i+1).
_S_X_FIRST = 1   # a < c < b < d
_S_Y_FIRST = -1  # c < a < d < b


def seifert_form_from_word(word) -> list[list[int]]:
    """V + V^T for the Seifert surface of the braid closure of ``word``."""
    occ: dict[int, list[tuple[int, int]]] = {}
    for pos, (i, sign) in enumerate(word):
        occ.setdefault(i, []).append((pos, sign))
    gens = []  # (index, (posA, signA), (posB, signB))
    for i in sorted(occ):
        hits = occ[i]
        for a, b in zip(hits, hits[1:]):
            gens.append((i, a, b))
    n = len(gens)
    m = [[0] * n for _ in range(n)]
    for g, (i, (a, ea), (b, eb)) in enumerate(gens):
        m[g][g] = -(ea + eb)
        for h in range(g + 1, n):
            j, (c, ec), (dd, _) = gens[h]
            val = 0
            if i == j:
                if c == b:
                    val = eb  # consecutive generators share the middle band
            elif abs(i - j) == 1:
                if i < j:
                    x1, x2, y1, y2 = a, b, c, dd
                else:
                    x1, x2, y1, y2 = c, dd, a, b
                if x1 < y1 < x2 < y2:
                    val = _S_X_FIRST
                elif y1 < x1 < y2 < x2:
                    val = _S_Y_FIRST
            m[g][h] = m[h][g] = val
    return m


# -------------------------------------------------------------- Vogel moves

def _regions_sides(d: Diagram):
    """Face-side incidences of oriented arcs: face -> side -> [(circle, h)]."""
    circles = d.seifert_circles()
    circle_of = {h: k for k, circ in enumerate(circles) for h in circ}
    fidx = d.face_index()
    buckets: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for h in d.require_orientation():
        k = circle_of[h]
        buckets.setdefault((fidx[h], 0), []).append((k, h))
        buckets.setdefault((fidx[d.pairing[h]], 1), []).append((k, h))
    return buckets


def _find_vogel_move(d: Diagram):
    """(h1, h2, side) for the first face side holding departures of two
    distinct Seifert circles; side 0 when the face lies right of both
    arcs, 1 when left."""
    for (_, side), entries in sorted(_regions_sides(d).items()):
        for idx in range(len(entries)):
            for jdx in range(idx + 1, len(entries)):
                if entries[idx][0] != entries[jdx][0]:
                    return entries[idx][1], entries[jdx][1], side
    return None


def _apply_vogel_move(d: Diagram, h1: int, h2: int, side: int) -> Diagram:
    """R2-push the arc of h1 across the arc of h2 through their shared face.

    The new crossings x, y sit on h2's arc as its under strand, x first.
    Both arcs run the same way around the face, so facing each other they
    run opposite and h1's strand meets y first.  It crosses over y and
    back over x from the face's side: slot 1 (right of h2's arc) on side
    0, slot 3 on side 1.  Orientation carries over from the old arcs.
    """
    p1, p2 = d.pairing[h1], d.pairing[h2]
    x, y = 4 * d.n, 4 * d.n + 4  # slot 0 of the new crossings
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
    pushed = _orient_with_hint(pushed, d.orientation)
    if ((pushed.components, len(pushed.seifert_circles()))
            != (d.components, len(d.seifert_circles()))):
        raise OracleError("the strand push changed the components or the "
                          "Seifert circles")
    return pushed


def to_braid_form(d: Diagram) -> Diagram:
    """Apply orientation-coherent R2 pushes until no face has two same-side
    arcs of distinct Seifert circles (closed-braid form)."""
    d.require_orientation()
    for _ in range(_MOVE_CAP):
        move = _find_vogel_move(d)
        if move is None:
            return d
        d = _apply_vogel_move(d, *move)
    raise OracleError("no braid form within the move budget")


# ----------------------------------------------------------- word extraction

def braid_word(d: Diagram) -> tuple[list[tuple[int, int]], int]:
    """Braid word and strand count for a connected oriented diagram."""
    if not d.is_connected():
        raise OracleError("braiding needs a connected diagram")
    if d.n == 0:
        return [], 1
    d = to_braid_form(d)
    circles = d.seifert_circles()
    circle_of = {h: k for k, circ in enumerate(circles) for h in circ}
    s = len(circles)

    def crossing_circles(c: int) -> tuple[int, int]:
        out = d.orientation
        u = 4 * c + (0 if 4 * c in out else 2)
        o = 4 * c + (1 if 4 * c + 1 in out else 3)
        return circle_of[u], circle_of[o]

    nbrs: dict[int, set[int]] = {k: set() for k in range(s)}
    for c in range(d.n):
        a, b = crossing_circles(c)
        if a == b:
            raise OracleError("band from a circle to itself in braid form")
        nbrs[a].add(b)
        nbrs[b].add(a)
    endpoints = sorted(k for k in nbrs if len(nbrs[k]) <= 1)
    if s == 1:
        order = [0]
    else:
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
        last_known = None
        pending: list[int] = []
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


# ------------------------------------------------------------------ oracle

def seifert_form(d: Diagram) -> list[list[int]]:
    word, _ = braid_word(d)
    return seifert_form_from_word(word)


def signature_oracle(d: Diagram) -> int:
    return signature_exact(seifert_form(d))


def det_oracle(d: Diagram) -> int:
    return abs(det_exact(seifert_form(d)))
