"""Independent determinant/signature oracle via Seifert's algorithm.

An oriented diagram is brought to closed-braid form by Vogel moves
(orientation-coherent R2 pushes inside a face whose boundary carries two
same-side arcs of distinct Seifert circles).  From the braid word, the
symmetrized Seifert matrix V + V^T of the braid-closure surface is
assembled from closed-form linking rules, giving the signature and the
determinant without reference to the Goeritz form.
"""

from __future__ import annotations

import heapq

from .diagram import Diagram
from .invariants import det_exact, signature_exact


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
    return asm.diagram().oriented(hints)


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

class _Braiding:
    """Vogel moves on one oriented diagram, updated locally per push.

    A face is named by its least half-edge, a Seifert circle by one of its
    departures or by the first half-edge of the push that made it.  The arc
    leaving at departure h has the face of h on its right (side 0) and the
    face of its arrival on its left (side 1).  ``counts[face, side]``
    counts the departures on that side per circle; a side holding two
    circles admits a move and waits in ``heap`` (which may also hold stale
    sides).
    """

    def __init__(self, d: Diagram):
        self.pairing = list(d.pairing)
        self.out = set(d.require_orientation())
        self.free_loops = d.free_loops
        self.circle_of = {h: circ[0] for circ in d.seifert_circles()
                          for h in circ}
        self.face_of: dict[int, int] = {}
        self.orbit: dict[int, tuple[int, ...]] = {}
        self.counts: dict[tuple[int, int], dict[int, int]] = {}
        self.heap: list[tuple[int, int]] = []
        for orbit in d.faces():
            if orbit:
                self._count_face(self._index_face(orbit), orbit)

    def diagram(self) -> Diagram:
        return Diagram(tuple(self.pairing), self.free_loops,
                       frozenset(self.out))

    def _walk_face(self, h0: int) -> tuple[int, ...]:
        pr = self.pairing
        orbit = [h0]
        h = 4 * (pr[h0] // 4) + (pr[h0] + 1) % 4
        while h != h0:
            orbit.append(h)
            h = 4 * (pr[h] // 4) + (pr[h] + 1) % 4
        return tuple(orbit)

    def _index_face(self, orbit: tuple[int, ...]) -> int:
        f = min(orbit)
        self.orbit[f] = orbit
        for g in orbit:
            self.face_of[g] = f
        return f

    def _count_face(self, f: int, orbit: tuple[int, ...]) -> None:
        sides = ({}, {})
        for g in orbit:
            side = 0 if g in self.out else 1
            k = self.circle_of[g if side == 0 else self.pairing[g]]
            sides[side][k] = sides[side].get(k, 0) + 1
        for side, cnt in enumerate(sides):
            self.counts[f, side] = cnt
            if len(cnt) > 1:
                heapq.heappush(self.heap, (f, side))

    def _recolor(self, h: int, old: int, new: int, fresh: dict) -> None:
        """Departure h moved from circle ``old`` to ``new``; faces in
        ``fresh`` are counted from scratch later.  Circles only merge, so
        no side starts to qualify here."""
        for key in ((self.face_of[h], 0), (self.face_of[self.pairing[h]], 1)):
            if key[0] not in fresh:
                cnt = self.counts[key]
                if cnt[old] == 1:
                    del cnt[old]
                else:
                    cnt[old] -= 1
                cnt[new] = cnt.get(new, 0) + 1

    def next_move(self):
        """(h1, h2, side) on the least face side holding two circles: h1
        its least departure, h2 the next one on another circle."""
        heap = self.heap
        while heap:
            f, side = heap[0]
            cnt = self.counts.get((f, side))
            if cnt is not None and len(cnt) > 1:
                break
            heapq.heappop(heap)
        else:
            return None
        if side == 0:
            deps = sorted(g for g in self.orbit[f] if g in self.out)
        else:
            deps = sorted(self.pairing[g] for g in self.orbit[f]
                          if g not in self.out)
        k = self.circle_of[deps[0]]
        h2 = next(h for h in deps if self.circle_of[h] != k)
        return deps[0], h2, side

    def push(self, h1: int, h2: int, side: int) -> None:
        """R2-push the arc of h1 across the arc of h2 through their shared face.

        The new crossings x, y sit on h2's arc as its under strand, x first.
        Both arcs run the same way around the face, so facing each other
        they run opposite and h1's strand meets y first.  It crosses over y
        and back over x from the face's side: slot 1 (right of h2's arc) on
        side 0, slot 3 on side 1.  The new departures are x+2, y+2 on h2's
        strand and y+4-s, x+s on h1's.
        """
        pr, out = self.pairing, self.out
        p1, p2 = pr[h1], pr[h2]
        gone = {self.face_of[h] for h in (h1, h2, p1, p2)}
        x, y = len(pr), len(pr) + 4  # slot 0 of the new crossings
        s = 1 if side == 0 else 3
        pr.extend([0] * 8)
        for a, b in ((h2, x), (x + 2, y), (y + 2, p2),
                     (h1, y + s), (y + 4 - s, x + 4 - s), (x + s, p1)):
            pr[a] = b
            pr[b] = a
        new_deps = (x + 2, y + 2, y + 4 - s, x + s)
        out.update(new_deps)
        # Euler: a planar push adds two faces, and only faces through a
        # rewired half-edge change
        faces: list[tuple[int, ...]] = []
        seen: set[int] = set()
        for h in (h1, h2, p1, p2, *range(x, x + 8)):
            if h not in seen:
                faces.append(self._walk_face(h))
                seen.update(faces[-1])
        if len(faces) != len(gone) + 2:
            raise OracleError("no planar isotopic wiring for the strand push")
        for f in gone:
            del self.orbit[f], self.counts[f, 0], self.counts[f, 1]
        fresh = {self._index_face(orbit): orbit for orbit in faces}
        # Only the circles through h1 and h2 change: every other departure
        # of theirs still runs into h1 or h2, so each stays whole.
        k1, k2 = self.circle_of[h1], self.circle_of[h2]
        circles: list[list[int]] = []
        seen.clear()
        for h0 in (h1, h2, *new_deps):
            h = h0
            circ = []
            while h not in seen:
                seen.add(h)
                circ.append(h)
                p = pr[h]  # arrival half-edge
                c = 4 * (p // 4)
                if p % 2 == 0:  # arrived on the under strand: leave on over
                    h = c + (1 if c + 1 in out else 3)
                else:
                    h = c + (0 if c in out else 2)
            if circ:
                circles.append(circ)
        if len(circles) != len({k1, k2}):
            raise OracleError("the strand push changed the Seifert circles")
        # h1's circle keeps its name; no circle is named x yet
        for k, circ in zip((k1, x), circles):
            for h in circ:
                was = self.circle_of.get(h)
                if was != k:
                    self.circle_of[h] = k
                    if was is not None:
                        self._recolor(h, was, k, fresh)
        for f, orbit in fresh.items():
            self._count_face(f, orbit)


def to_braid_form(d: Diagram) -> Diagram:
    """Apply orientation-coherent R2 pushes until no face has two same-side
    arcs of distinct Seifert circles (closed-braid form).

    At most n^2 pushes are made for an n-crossing input: the push count
    grows about quadratically on two-bridge diagrams, and the corpus needs
    at most 0.21 n^2."""
    d.require_orientation()
    d.validate()
    state = _Braiding(d)
    for _ in range(d.n ** 2 + 1):
        move = state.next_move()
        if move is None:
            braided = state.diagram()
            braided.validate()
            return braided
        state.push(*move)
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
