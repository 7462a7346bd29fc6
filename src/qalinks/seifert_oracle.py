"""Independent determinant/signature oracle via Seifert's algorithm.

An oriented diagram is brought to closed-braid form by Vogel moves
(orientation-coherent R2 pushes inside a face whose boundary carries two
same-side arcs of distinct Seifert circles).  From the braid word, the
entries of the symmetrized Seifert matrix V + V^T of the braid-closure
surface are assembled sparse from closed-form linking rules.  Each push
is a stabilization, which adds a hyperbolic plane to the form.  A plane
spanned by a generator with a zero diagonal entry and an entry +-1 is
split off by a unimodular congruence wherever that does not fill the
form in, with no pivot and no determinant, and only the kept
generators go to the kernel, with each row's last nonzero column.
That gives the signature and the determinant without reference to the
Goeritz form."""

from __future__ import annotations

import heapq
from bisect import bisect

from .diagram import Diagram, _orbit, _seifert_circle
from .invariants import det_exact, signature_exact


class OracleError(RuntimeError):
    """The oracle could not process the diagram."""


# ----------------------------------------------------- symmetrized Seifert form

# Signs of the symmetrized pairing for interleaved generators on adjacent
# braid indices, fixed by calibration against the Goeritz route on random
# braid closures (x spans positions a<b at index i, y spans c<d at i+1).
_S_X_FIRST = 1   # a < c < b < d
_S_Y_FIRST = -1  # c < a < d < b


def _braid_form(word) -> tuple[list[int], list[dict[int, int]]]:
    """The nonzero entries of V + V^T for the Seifert surface of the braid
    closure of ``word``: the diagonal, and each generator's off-diagonal
    entries by column.

    A generator spans two consecutive letters of one index.  Off the
    diagonal, an entry is nonzero only for the next generator of the same
    index (the two share the middle band) or for an interleaved generator
    of the index above.  Generator g spans letters a < b of index i; of
    index i+1, only the generator from the last letter before a can end
    inside (a, b), and only the one from the last letter inside (a, b) can
    end past b.  So a bisection of the letters of index i+1 finds both.
    """
    letters: dict[int, list[int]] = {}  # index -> positions of its letters
    for pos, (i, _) in enumerate(word):
        letters.setdefault(i, []).append(pos)
    first: dict[int, int] = {}  # index -> its first generator's place
    diag: list[int] = []
    for i in sorted(letters):
        ps = letters[i]
        first[i] = len(diag)
        diag.extend(-(word[a][1] + word[b][1]) for a, b in zip(ps, ps[1:]))
    off: list[dict[int, int]] = [{} for _ in diag]
    for i, g0 in first.items():
        ps, up = letters[i], letters.get(i + 1, ())
        for t in range(len(ps) - 1):
            g, a, b = g0 + t, ps[t], ps[t + 1]
            if t + 2 < len(ps):
                off[g][g + 1] = off[g + 1][g] = word[b][1]
            lo, hi = bisect(up, a), bisect(up, b)
            if lo < hi:
                if lo:  # c < a < d < b
                    h = first[i + 1] + lo - 1
                    off[g][h] = off[h][g] = _S_Y_FIRST
                if hi < len(up):  # a < c < b < d
                    h = first[i + 1] + hi - 1
                    off[g][h] = off[h][g] = _S_X_FIRST
    return diag, off


def seifert_form_from_word(word) -> list[list[int]]:
    """V + V^T for the Seifert surface of the braid closure of ``word``,
    dense, one row per generator (see ``_braid_form``)."""
    diag, off = _braid_form(word)
    m = [[0] * len(diag) for _ in diag]
    for g, row in enumerate(off):
        m[g][g] = diag[g]
        for h, v in row.items():
            m[g][h] = v
    return m


def split_form_from_word(word) -> tuple[int, list[list[int]], list[int]]:
    """V + V^T of the braid closure of ``word`` with hyperbolic planes split
    off: (factor, rows, ends), where det(V + V^T) = factor * det(rows),
    the two have one signature, and ``ends[k]`` is the last nonzero
    column of ``rows[k]``.

    A generator g with a zero diagonal entry and an entry b = +-1 in
    column h spans with h a plane [[0, b], [b, c]], c = a[h][h], of
    determinant -1 and signature 0 and with integral inverse
    [[-c, b], [b, 0]].  So a unimodular congruence splits g and h off and
    changes each other entry to a[r][s] + c*x[r]*x[s] - b*(x[r]*y[s] +
    y[r]*x[s]), with x[r] = a[r][g] and y[r] = a[r][h]; the factor changes
    sign.  Of g's +-1 entries the split takes the one whose update
    touches fewest entries, if no more than the plane removes (Markowitz
    1957), so the form never fills in.  The rows an update touches, and
    their neighbours, are queued again.  Entries that cancel are dropped;
    the kept generators stay in index order, which keeps the form banded.
    """
    diag, off = _braid_form(word)
    factor, live, queued = 1, [True] * len(diag), [not v for v in diag]
    stack = [g for g in range(len(diag) - 1, -1, -1) if queued[g]]
    while stack:
        g = stack.pop()
        queued[g] = False
        if not live[g] or diag[g]:
            continue
        xn, best = len(off[g]) - 1, None
        for h, b in off[g].items():
            yn, c = len(off[h]) - 1, diag[h] != 0
            touched = xn * (xn * c + 2 * yn)
            if b * b == 1 and touched <= 2 * (xn + yn + 1) + c and (
                    best is None or touched < best[0]):
                best = touched, h
        if best is None:
            continue
        h = best[1]
        xs, ys, c = off[g], off[h], diag[h]
        b = xs.pop(h)
        del ys[g]
        live[g] = live[h] = False
        factor = -factor
        for r in xs:
            del off[r][g]
        for r in ys:
            del off[r][h]
        updates = [(r, s, c * x * v) for r, x in xs.items()
                   for s, v in xs.items()] if c else []
        updates += [pair for r, x in xs.items() for s, y in ys.items()
                    for pair in ((r, s, -b * x * y), (s, r, -b * x * y))]
        for r, s, v in updates:
            if r == s:
                diag[r] += v
            elif v := v + off[r].pop(s, 0):
                off[r][s] = v
        for r in (*xs, *ys):
            for t in (r, *off[r]):
                if not diag[t] and not queued[t]:
                    queued[t] = True
                    stack.append(t)
    kept = [g for g, alive in enumerate(live) if alive]
    place = {g: k for k, g in enumerate(kept)}
    rows, ends = [], []
    for k, g in enumerate(kept):
        row = [0] * len(kept)
        row[k] = diag[g]
        entries = off[g]
        for h, v in entries.items():
            row[place[h]] = v
        rows.append(row)
        # rows keep the generators' order, so the last column is the
        # place of the last generator
        ends.append(max(place[max(entries)] if entries else -1,
                        k if diag[g] else -1))
    return factor, rows, ends


# -------------------------------------------------------------- Vogel moves

class _Braiding:
    """Vogel moves on one oriented diagram, updated locally per push.

    ``departs``, ``face_of`` and ``circle_of`` hold per half-edge its
    departure flag (the diagram's orientation), its face and, for a
    departure, its Seifert circle.  A face is named by its least
    half-edge, a circle by its place in the diagram's ``seifert_circles``
    or by a half-edge of the push that made it.  The arc
    leaving at departure h has the face of h on its right (side 0) and the
    face of its arrival on its left (side 1).  A side holding departures of
    two circles admits a move.  A side of a face no push rewired never
    starts to hold two circles, so ``heap`` takes such a side when its face
    is made, and ``next_move`` drops the sides that no longer hold two."""

    def __init__(self, d: Diagram):
        self.pairing = list(d.pairing)
        self.departs = bytearray(d.orientation)
        self.free_loops = d.free_loops
        d.seifert_circles()
        self.circle_of = list(d._cache["circle_of"])
        self.face_of = [0] * len(d.pairing)
        self.orbit: dict[int, tuple[int, ...]] = {}
        self.heap: list[tuple[int, int]] = []
        for orbit in d.faces():
            if orbit:
                self._add_face(orbit)

    def diagram(self) -> Diagram:
        return Diagram(tuple(self.pairing), self.free_loops,
                       bytes(self.departs))

    def _add_face(self, orbit: tuple[int, ...]) -> None:
        """Name and index a face, and queue each of its sides that holds
        departures of two circles."""
        f = min(orbit)
        self.orbit[f] = orbit
        pr, departs, circle_of = self.pairing, self.departs, self.circle_of
        face_of = self.face_of
        first0 = first1 = -1  # the first circle seen on each side
        two0 = two1 = False   # and whether a second one is
        for g in orbit:
            face_of[g] = f
            if departs[g]:
                k = circle_of[g]
                if first0 < 0:
                    first0 = k
                elif k != first0:
                    two0 = True
            else:
                k = circle_of[pr[g]]
                if first1 < 0:
                    first1 = k
                elif k != first1:
                    two1 = True
        for side, two in ((0, two0), (1, two1)):
            if two:
                heapq.heappush(self.heap, (f, side))

    def next_move(self):
        """(h1, h2, side) on the least face side holding two circles: h1
        its least departure, h2 the least one on another circle."""
        heap, circle_of, departs = self.heap, self.circle_of, self.departs
        while heap:
            f, side = heap[0]
            orbit = self.orbit.get(f, ())
            if side == 0:
                deps = sorted(g for g in orbit if departs[g])
            else:
                deps = sorted(self.pairing[g] for g in orbit
                              if not departs[g])
            for h in deps:
                if circle_of[h] != circle_of[deps[0]]:
                    return deps[0], h, side
            heapq.heappop(heap)
        return None

    def push(self, h1: int, h2: int, side: int) -> None:
        """R2-push the arc of h1 across the arc of h2 through their shared face.

        The new crossings x, y sit on h2's arc as its under strand, x first.
        Both arcs run the same way around the face, so facing each other
        they run opposite and h1's strand meets y first.  It crosses over y
        and back over x from the face's side: slot 1 (right of h2's arc) on
        side 0, slot 3 on side 1.  The new departures are x+2, y+2 on h2's
        strand and y+4-s, x+s on h1's.
        """
        pr, departs, circle_of = self.pairing, self.departs, self.circle_of
        p1, p2 = pr[h1], pr[h2]
        gone = {self.face_of[h] for h in (h1, h2, p1, p2)}
        x, y = len(pr), len(pr) + 4  # slot 0 of the new crossings
        s = 1 if side == 0 else 3
        for grown in (pr, departs, circle_of, self.face_of):
            grown.extend(bytes(8))
        for a, b in ((h2, x), (x + 2, y), (y + 2, p2),
                     (h1, y + s), (y + 4 - s, x + 4 - s), (x + s, p1)):
            pr[a] = b
            pr[b] = a
        new_deps = (x + 2, y + 2, y + 4 - s, x + s)
        for h in new_deps:
            departs[h] = 1
        # Euler: a planar push adds two faces, and only faces through a
        # rewired half-edge change
        faces: list[tuple[int, ...]] = []
        seen: set[int] = set()
        for h in (h1, h2, p1, p2, *range(x, x + 8)):
            if h not in seen:
                faces.append(_orbit(pr, h, 1))
                seen.update(faces[-1])
        if len(faces) != len(gone) + 2:
            raise OracleError("no planar isotopic wiring for the strand push")
        for f in gone:
            del self.orbit[f]
        # Only the circles through h1 and h2 change: every other departure
        # of theirs still runs into h1 or h2, so each stays whole.  The
        # circles walked take the fresh names x, x + 1, ...
        circles = len({circle_of[h1], circle_of[h2]})
        walked = 0
        for h0 in (h1, h2, *new_deps):
            if not x <= circle_of[h0] < x + walked:
                _seifert_circle(pr, departs, h0, circle_of, x + walked)
                walked += 1
        if walked != circles:
            raise OracleError("the strand push changed the Seifert circles")
        for orbit in faces:
            self._add_face(orbit)


def to_braid_form(d: Diagram) -> Diagram:
    """Apply orientation-coherent R2 pushes until no face has two same-side
    arcs of distinct Seifert circles (closed-braid form).  The result's
    orientation is the braider's departure flags, extended by each push.

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
    """Braid word and strand count for a connected oriented diagram.

    The diagram is brought to braid form (``to_braid_form``).  There every
    crossing is a band between two Seifert circles, and the circles, joined
    by their bands, form a path; the strands are the circles in path order
    from its least end, and a band between the i-th and (i+1)-th is letter
    i, signed by its crossing.  The word is read in one pass over the
    circles.  The first one gives its bands in its own order.  On circle k
    a band is already placed exactly when its letter is k - 1, and each
    other band is placed after the last placed one before it on the
    circle.  Flattening these "placed after" lists depth first, from the
    first circle's bands, gives the word."""
    if not d.is_connected():
        raise OracleError("braiding needs a connected diagram")
    if d.n == 0:
        return [], 1
    d = to_braid_form(d)
    pr, departs, circles = d.pairing, d.orientation, d.seifert_circles()
    s, circle_of = len(circles), d._cache["circle_of"]
    # each crossing's under and over circle: its under strand leaves by
    # slot 0 or 2, its over strand by slot 1 or 3
    under = [circle_of[h if departs[h] else h + 2]
             for h in range(0, len(pr), 4)]
    over = [circle_of[h if departs[h] else h + 2]
            for h in range(1, len(pr), 4)]
    nbrs: list[set[int]] = [set() for _ in range(s)]
    for a, b in zip(under, over):
        if a == b:
            raise OracleError("band from a circle to itself in braid form")
        nbrs[a].add(b)
        nbrs[b].add(a)
    end = next((k for k in range(s) if len(nbrs[k]) <= 1), None)
    if end is None:
        raise OracleError("circle adjacency is not a path")
    order, pos = [end], [-1] * s  # pos: circle -> place on the path
    pos[end] = 0
    while len(order) < s:
        nxt = [k for k in nbrs[order[-1]] if pos[k] < 0]
        if len(nxt) != 1:
            raise OracleError("circle adjacency is not a path")
        pos[nxt[0]] = len(order)
        order.append(nxt[0])
    letter = []
    for a, b in zip(under, over):
        i, j = pos[a], pos[b]
        if abs(i - j) != 1:
            raise OracleError("band between non-adjacent circles")
        letter.append(min(i, j))
    # crossing -> the bands placed right after it, in order
    after: list[list[int]] = [[] for _ in letter]
    for k in range(1, s - 1):
        circ = circles[order[k]]
        start = next(q for q, h in enumerate(circ) if letter[pr[h] >> 2] < k)
        for h in circ[start:] + circ[:start]:
            c = pr[h] >> 2
            if letter[c] < k:
                last = c
            else:
                after[last].append(c)
    word = []
    stack = [pr[h] >> 2 for h in reversed(circles[order[0]])]
    while stack:
        c = stack.pop()
        # +1 exactly when the under and over strands leave by slots 0 and
        # 1 or by 2 and 3 (``Diagram.crossing_sign``)
        word.append((letter[c],
                     1 if departs[4 * c] == departs[4 * c + 1] else -1))
        stack.extend(reversed(after[c]))
    return word, s


# ------------------------------------------------------------------ oracle

def seifert_form(d: Diagram) -> list[list[int]]:
    """V + V^T of the braid closure the oriented diagram ``d`` is isotoped
    to (``braid_word``)."""
    word, _ = braid_word(d)
    return seifert_form_from_word(word)


def signature_oracle(d: Diagram) -> int:
    _, rows, ends = split_form_from_word(braid_word(d)[0])
    return signature_exact(rows, ends)


def det_oracle(d: Diagram) -> int:
    factor, rows, ends = split_form_from_word(braid_word(d)[0])
    return abs(factor * det_exact(rows, ends))
