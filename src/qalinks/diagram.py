"""Planar link diagrams as combinatorial maps.

A diagram is a list of crossings, each with four half-edge slots in
counterclockwise cyclic order, plus an involution pairing half-edges into
arcs.  Half-edge ``h`` lives at crossing ``h // 4``, slot ``h % 4``.  The
strand through slots 0 and 2 passes under; slots 1 and 3 carry the over
strand.  Changing a crossing is therefore a rotation of its slot labels
by one, which leaves the underlying planar map untouched.

An orientation is stored as the set of half-edges along which the strand
leaves its crossing; one choice of direction per link component.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional


class MalformedDiagram(ValueError):
    """The pairing or slot data does not describe a planar link diagram."""


class UnorientedDiagram(ValueError):
    """Operation requires an orientation but none is attached."""


def _crossing(h: int) -> int:
    return h // 4


def _slot(h: int) -> int:
    return h % 4


WHITE = 0
BLACK = 1


def chi(white_corners: tuple[int, int]) -> int:
    """Goeritz sign of a crossing from which corner pair is white.

    Calibrated together with the signature correction so that the standard
    positive trefoil has signature -2.
    """
    return 1 if white_corners == (1, 3) else -1


def _index_faces(faces: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """half-edge -> face id (position in faces), indexed by half-edge."""
    face_of = [0] * sum(map(len, faces))
    for i, f in enumerate(faces):
        for h in f:
            face_of[h] = i
    return tuple(face_of)


def _derived(walk):
    """Method returning ``walk(self)``, computed at most once per diagram.

    The value lives in the diagram's ``_cache`` field, which takes no part
    in comparison, hashing or repr; ``__wrapped__`` is the raw walk.
    """
    name = walk.__name__

    @functools.wraps(walk)
    def method(self):
        cache = self._cache
        if name not in cache:
            cache[name] = walk(self)
        return cache[name]
    return method


def _white_corners(col: "Coloring", c: int) -> tuple[int, int]:
    k0 = col.face_of[4 * c + 1]  # face of corner 0
    return (0, 2) if col.colors[k0] == WHITE else (1, 3)


@dataclass(frozen=True)
class Coloring:
    faces: tuple[tuple[int, ...], ...]
    colors: tuple[int, ...]
    unbounded: int
    face_of: tuple[int, ...] = field(compare=False, repr=False)  # half-edge -> face id


class TaitEdge(NamedTuple):
    u: int
    v: int
    sign: int
    crossing: int


@dataclass(frozen=True)
class SignedTaitGraph:
    vertices: tuple[int, ...]
    edges: tuple[TaitEdge, ...]


@dataclass(frozen=True)
class Diagram:
    pairing: tuple[int, ...]
    free_loops: int = 0
    orientation: Optional[frozenset[int]] = None
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @property
    def n(self) -> int:
        return len(self.pairing) // 4

    def validate(self) -> None:
        pr = self.pairing
        if len(pr) % 4 != 0:
            raise MalformedDiagram("half-edge count not a multiple of 4")
        for h, p in enumerate(pr):
            if not 0 <= p < len(pr) or pr[p] != h or p == h:
                raise MalformedDiagram(f"pairing is not a fixed-point-free involution at {h}")
        if self.free_loops < 0:
            raise MalformedDiagram("negative free loop count")
        # Euler formula per connected piece: V - E + F = 2
        pieces = self.pieces()
        piece_of = {c: i for i, piece in enumerate(pieces) for c in piece}
        face_count = [0] * len(pieces)
        for fc in self.faces():
            if fc:
                face_count[piece_of[_crossing(fc[0])]] += 1
        for piece, f in zip(pieces, face_count):
            v = len(piece)
            e = 2 * v
            if v - e + f != 2:
                raise MalformedDiagram("map is not planar (Euler formula fails)")
        if self.orientation is not None:
            out = self.orientation
            for a, b in self.strand_orbit_pairs():
                if not (a <= out and not (b & out)) and not (b <= out and not (a & out)):
                    raise MalformedDiagram("orientation is not a consistent direction choice")

    # ------------------------------------------------------------------ faces

    @_derived
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Boundary orbits h -> rotate(pair(h)); one orbit per face.

        Each free loop contributes one extra (empty) face; a diagram that is
        nothing but free loops gets one more for the unbounded region.
        """
        pr = self.pairing
        seen = [False] * len(pr)
        out = []
        for h0 in range(len(pr)):
            if seen[h0]:
                continue
            orbit = []
            h = h0
            while not seen[h]:
                seen[h] = True
                orbit.append(h)
                p = pr[h]
                h = 4 * _crossing(p) + (_slot(p) + 1) % 4
            out.append(tuple(orbit))
        extra = self.free_loops + (1 if self.n == 0 and self.free_loops else 0)
        out.extend(() for _ in range(extra))
        return tuple(out)

    # --------------------------------------------------------- checkerboard

    @_derived
    def checkerboard(self) -> "Coloring":
        """Proper 2-coloring of the faces with the unbounded face white.

        The unbounded face of a bare combinatorial map is a choice; we take
        the face with the most half-edges (ties by smallest half-edge id).
        Requires a connected diagram.  No pieces walk is needed for that:
        the faces of a second piece are never reached from the unbounded
        face.
        """
        if self.n == 0:
            if self.free_loops != 1:
                raise MalformedDiagram("checkerboard needs a connected diagram")
            return Coloring(faces=((), ()), colors=(WHITE, BLACK), unbounded=0,
                            face_of=())
        if self.free_loops:
            raise MalformedDiagram("checkerboard needs a connected diagram")
        faces = self.faces()
        idx = _index_faces(faces)
        unbounded = max(range(len(faces)),
                        key=lambda i: (len(faces[i]), -min(faces[i])))
        colors = [None] * len(faces)
        colors[unbounded] = WHITE
        stack = [unbounded]
        while stack:
            f = stack.pop()
            for h in faces[f]:
                g = idx[self.pairing[h]]
                want = BLACK if colors[f] == WHITE else WHITE
                if colors[g] is None:
                    colors[g] = want
                    stack.append(g)
                elif colors[g] != want:
                    raise MalformedDiagram("faces are not checkerboard-colorable")
        if None in colors:
            raise MalformedDiagram("checkerboard needs a connected diagram")
        return Coloring(faces=faces, colors=tuple(colors), unbounded=unbounded,
                        face_of=idx)

    def white_corners(self, c: int) -> tuple[int, int]:
        """The two corner indices of crossing c lying in white faces."""
        return _white_corners(self.checkerboard(), c)

    def black_graph(self) -> "SignedTaitGraph":
        """One signed edge per crossing joining its two black corners."""
        return self._tait_graph(BLACK)

    def white_graph(self) -> "SignedTaitGraph":
        """One signed edge per crossing joining its two white corners; the
        unbounded face is the first vertex."""
        return self._tait_graph(WHITE)

    def _tait_graph(self, color: int) -> "SignedTaitGraph":
        col = self.checkerboard()
        idx = col.face_of
        vertices = [i for i, cl in enumerate(col.colors)
                    if cl == color and i != col.unbounded]
        if color == WHITE:
            vertices.insert(0, col.unbounded)
        edges = []
        for c in range(self.n):
            white = _white_corners(col, c)
            k = white[0] if color == WHITE else 1 - white[0]  # corners k, k+2
            u = idx[4 * c + k + 1]
            v = idx[4 * c + (k + 3) % 4]
            edges.append(TaitEdge(u, v, chi(white), c))
        return SignedTaitGraph(tuple(vertices), tuple(edges))

    # ----------------------------------------------------------- connectivity

    @_derived
    def pieces(self) -> tuple[frozenset[int], ...]:
        """Connected components of the 4-valent graph (crossing sets)."""
        pr = self.pairing
        seen: set[int] = set()
        out = []
        for c0 in range(self.n):
            if c0 in seen:
                continue
            comp = {c0}
            stack = [c0]
            while stack:
                c = stack.pop()
                for s in range(4):
                    c2 = _crossing(pr[4 * c + s])
                    if c2 not in comp:
                        comp.add(c2)
                        stack.append(c2)
            seen |= comp
            out.append(frozenset(comp))
        return tuple(out)

    def is_split(self) -> bool:
        pieces = len(self.pieces()) + self.free_loops
        return pieces > 1

    def is_connected(self) -> bool:
        return not self.is_split() and (self.n > 0 or self.free_loops == 1)

    # -------------------------------------------------------------- strands

    def _strand_next(self, h: int) -> int:
        """Follow the strand: cross the arc, pass straight through."""
        p = self.pairing[h]
        return 4 * _crossing(p) + (_slot(p) + 2) % 4

    @_derived
    def strand_orbit_pairs(self) -> tuple[tuple[frozenset[int], frozenset[int]], ...]:
        """Per component, the two direction orbits (sets of departure half-edges)."""
        seen: set[int] = set()
        out = []
        for h0 in range(4 * self.n):
            if h0 in seen:
                continue
            fwd = []
            h = h0
            while h not in seen:
                seen.add(h)
                fwd.append(h)
                h = self._strand_next(h)
            rev = frozenset(self.pairing[h] for h in fwd)
            seen |= rev
            out.append((frozenset(fwd), rev))
        return tuple(out)

    @property
    def components(self) -> int:
        return len(self.strand_orbit_pairs()) + self.free_loops

    def orientations(self) -> list["Diagram"]:
        """All 2^(m-1) orientation classes (first component's direction fixed)."""
        pairs = self.strand_orbit_pairs()
        if not pairs:
            return [Diagram(self.pairing, self.free_loops, frozenset())]
        first, rest = pairs[0][0], pairs[1:]
        result = []
        for mask in range(1 << len(rest)):
            sel = first
            for i, (a, b) in enumerate(rest):
                sel = sel | (b if mask >> i & 1 else a)
            result.append(Diagram(self.pairing, self.free_loops, sel))
        return result

    def oriented(self, hints: Iterable[int] = ()) -> "Diagram":
        """Attach an orientation: per component, the direction holding a
        half-edge of ``hints``, else the first direction."""
        hints = frozenset(hints)
        sel = frozenset().union(*(b if b & hints and not a & hints else a
                                  for a, b in self.strand_orbit_pairs()))
        return Diagram(self.pairing, self.free_loops, sel)

    def require_orientation(self) -> frozenset[int]:
        if self.orientation is None:
            raise UnorientedDiagram("diagram has no orientation attached")
        return self.orientation

    def crossing_sign(self, c: int) -> int:
        """+1 or -1 under the right-hand convention (writhe of the standard
        positive trefoil is +3)."""
        out = self.require_orientation()
        u_out = 0 if 4 * c + 0 in out else 2
        o_out = 1 if 4 * c + 1 in out else 3
        return 1 if (o_out - u_out) % 4 == 1 else -1

    def writhe(self) -> int:
        return sum(self.crossing_sign(c) for c in range(self.n))

    # ------------------------------------------------------- local surgeries

    def _surgery(self, removed: set[int], joins: list[tuple[int, int]]) -> "Diagram":
        """Delete crossings in ``removed``; ``joins`` connect their slots
        pairwise internally.  Closed internal cycles become free loops."""
        join_of = {}
        for a, b in joins:
            join_of[a] = b
            join_of[b] = a
        removed_h = {4 * c + s for c in removed for s in range(4)}
        assert set(join_of) == removed_h
        old_n = self.n
        keep = [c for c in range(old_n) if c not in removed]
        relabel = {c: i for i, c in enumerate(keep)}

        new_pairing = [0] * (4 * len(keep))
        visited_removed: set[int] = set()
        for c in keep:
            for s in range(4):
                h = 4 * c + s
                p = self.pairing[h]
                trail = []
                while p in removed_h:
                    trail.append(p)
                    p = self.pairing[join_of[p]]
                visited_removed.update(trail)
                visited_removed.update(join_of[t] for t in trail)
                new_h = 4 * relabel[c] + s
                new_p = 4 * relabel[_crossing(p)] + _slot(p)
                new_pairing[new_h] = new_p
        loops = 0
        left = removed_h - visited_removed
        while left:
            h = next(iter(left))
            cyc = set()
            while h not in cyc:
                cyc.add(h)
                h2 = join_of[h]
                cyc.add(h2)
                h = self.pairing[h2]
            left -= cyc
            loops += 1
        return Diagram(tuple(new_pairing), self.free_loops + loops, None)

    def resolve(self, c: int, kind: str) -> "Diagram":
        """Smooth crossing c.  Kind "zero" joins slots (1,2) and (3,0);
        kind "infinity" joins (0,1) and (2,3)."""
        if not 0 <= c < self.n:
            raise MalformedDiagram(f"no crossing {c}")
        if kind == "zero":
            joins = [(4 * c + 1, 4 * c + 2), (4 * c + 3, 4 * c + 0)]
        elif kind == "infinity":
            joins = [(4 * c + 0, 4 * c + 1), (4 * c + 2, 4 * c + 3)]
        else:
            raise ValueError(f"unknown resolution kind {kind!r}")
        return self._surgery({c}, joins)

    def oriented_resolution_kind(self, c: int) -> str:
        """The smoothing at c compatible with the attached orientation."""
        out = self.require_orientation()
        u_out = 0 if 4 * c in out else 2
        # orientation smoothing joins each outgoing slot with the incoming
        # slot of the other strand adjacent to it
        o_in = 3 if 4 * c + 1 in out else 1
        pair = {u_out, o_in}
        return "zero" if pair in ({1, 2}, {0, 3}) else "infinity"

    def resolve_oriented(self, c: int) -> tuple["Diagram", "Diagram"]:
        """(L0, Linf): L0 is the orientation-respecting smoothing carrying
        the induced orientation; Linf is returned unoriented."""
        kind0 = self.oriented_resolution_kind(c)
        kind_inf = "infinity" if kind0 == "zero" else "zero"
        # surviving arcs keep their direction; crossings past c move down one
        kept = (h - 4 if h > 4 * c else h for h in self.orientation
                if _crossing(h) != c)
        d0 = self.resolve(c, kind0).oriented(kept)
        return d0, self.resolve(c, kind_inf)

    def crossing_change(self, c: int) -> "Diagram":
        """Flip over/under at c (rotate its slot labels by one)."""
        if not 0 <= c < self.n:
            raise MalformedDiagram(f"no crossing {c}")

        def remap(h: int) -> int:
            return 4 * c + (_slot(h) + 1) % 4 if _crossing(h) == c else h

        inverse = {remap(4 * c + s): 4 * c + s for s in range(4)}
        new_pairing = [0] * len(self.pairing)
        for h in range(len(self.pairing)):
            src = inverse.get(h, h)
            new_pairing[h] = remap(self.pairing[src])
        orient = None
        if self.orientation is not None:
            orient = frozenset(remap(h) for h in self.orientation)
        return Diagram(tuple(new_pairing), self.free_loops, orient)

    def mirror(self) -> "Diagram":
        """Change every crossing at once: each slot label turns by one."""
        def rot(h: int) -> int:
            return h - _slot(h) + (_slot(h) + 1) % 4

        new_pairing = [0] * len(self.pairing)
        for h, p in enumerate(self.pairing):
            new_pairing[rot(h)] = rot(p)
        orient = None
        if self.orientation is not None:
            orient = frozenset(rot(h) for h in self.orientation)
        return Diagram(tuple(new_pairing), self.free_loops, orient)

    # -------------------------------------------------------------- Seifert

    @_derived
    def seifert_circles(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of the orientation-respecting smoothing (departure half-edges)."""
        out = self.require_orientation()
        seen: set[int] = set()
        circles = []
        for h0 in sorted(out):
            if h0 in seen:
                continue
            circ = []
            h = h0
            while h not in seen:
                seen.add(h)
                circ.append(h)
                p = self.pairing[h]  # arrival half-edge
                c, s = _crossing(p), _slot(p)
                if s % 2 == 0:  # arrived on the under strand: leave on over
                    h = 4 * c + (1 if 4 * c + 1 in out else 3)
                else:
                    h = 4 * c + (0 if 4 * c in out else 2)
            circles.append(tuple(circ))
        return tuple(circles)

    def seifert_state(self) -> tuple[int, int]:
        """(number of Seifert circles, writhe)."""
        s = len(self.seifert_circles()) + self.free_loops
        return s, self.writhe()

    def seifert_genus_diagram(self):
        """Genus of the Seifert-algorithm surface: (c - s + 2 - m)/2."""
        from .cfrac import Rational
        s, _ = self.seifert_state()
        return Rational(self.n - s + 2 - self.components, 2)

    def smoothing_merges_white(self, c: int) -> bool:
        """Whether the orientation smoothing at c joins its two white corners."""
        # kind "infinity" joins slots (0,1),(2,3): merges corners 0 and 2
        merged_corner = 0 if self.oriented_resolution_kind(c) == "infinity" else 1
        return merged_corner in self.white_corners(c)

    def is_special(self) -> bool:
        """Orientation smoothing merges same-colored corners at every crossing."""
        return len({self.smoothing_merges_white(c) for c in range(self.n)}) <= 1

    # -------------------------------------------------------------- simplify

    def _find_r1(self) -> Optional[tuple[int, int]]:
        for c in range(self.n):
            for s in range(4):
                if self.pairing[4 * c + s] == 4 * c + (s + 1) % 4:
                    return c, s
        return None

    def _find_r2(self) -> Optional[tuple[int, int, int, int]]:
        pr = self.pairing
        for f in self.faces():
            if len(f) != 2:
                continue
            h1, h2 = f
            c, j1 = _crossing(h1), _slot(h1)
            dd, k1 = _crossing(h2), _slot(h2)
            if c == dd:
                continue
            j = (j1 - 1) % 4  # arcs of the bigon leave slots j+1 (at c), k+1 (at dd)
            k = (k1 - 1) % 4
            # strand entering c on slot j+1 exits the bigon arc at dd slot k
            if (j + 1) % 2 == k % 2:  # same strand over (or under) at both
                return c, j, dd, k
        return None

    def simplify(self) -> "Diagram":
        """Remove R1 kinks and cancelling R2 pairs until none remain."""
        d = self
        while True:
            r1 = d._find_r1()
            if r1 is not None:
                c, a = r1
                joins = [(4 * c + (a + 1) % 4, 4 * c + (a + 2) % 4),
                         (4 * c + (a + 3) % 4, 4 * c + a)]
                d = d._surgery({c}, joins)
                continue
            r2 = d._find_r2()
            if r2 is not None:
                c, j, dd, k = r2
                joins = [(4 * c + (j + 1) % 4, 4 * c + (j + 3) % 4),
                         (4 * c + j, 4 * c + (j + 2) % 4),
                         (4 * dd + k, 4 * dd + (k + 2) % 4),
                         (4 * dd + (k + 1) % 4, 4 * dd + (k + 3) % 4)]
                d = d._surgery({c, dd}, joins)
                continue
            return d

    # ------------------------------------------------------------- predicates

    def is_alternating(self) -> bool:
        """Over/under alternates along every strand."""
        for fwd, _ in self.strand_orbit_pairs():
            for h in fwd:
                p = self.pairing[h]
                if _slot(h) % 2 == _slot(p) % 2:
                    return False
        return True

    def is_positive(self) -> bool:
        return self.n > 0 and all(self.crossing_sign(c) == 1 for c in range(self.n))

    def is_negative(self) -> bool:
        return self.n > 0 and all(self.crossing_sign(c) == -1 for c in range(self.n))

    # --------------------------------------------------------- canonical key

    def canonical_key(self) -> bytes:
        """Deterministic key, equal for relabelings of the same map (including
        a relabeling reflection of the plane).

        The key is the least, as a string, of the BFS encodings
        ``"a.b,c.d,..."`` over every start half-edge of the map and of its
        reflection (see ``_encoding_below``).  The search rests on three
        facts:

        - A start on slot 1 or 3 anchors its crossing at slot 0 or 2, like
          the start one slot before it, so only the 2n even-slot starts
          per reflection are distinct.
        - With ``rank`` sorting 0..n-1 by their decimal strings, the token
          ``rank[a] * 4 + b`` of an arc ``a.b`` orders token lists as the
          strings order: ``.`` and ``,`` sort below every digit, so a
          number's string sorts before the strings it is a prefix of.
        - A crossing's four arcs are encoded when the BFS takes it from the
          queue, and by then every neighbour has its number.  So a start
          is abandoned at its first token above the best list so far.
        """
        n = self.n
        if n == 0:
            return f"loops:{self.free_loops}".encode()
        by_rank = sorted(range(n), key=str)
        rank = [0] * n
        for r, a in enumerate(by_rank):
            rank[a] = r
        best = _least_encoding(self.pairing, rank, None)
        best = _least_encoding(self._reflected_pairing(), rank, best)
        text = ",".join(f"{by_rank[t >> 2]}.{t & 3}" for t in best)
        return (f"loops:{self.free_loops};" + text).encode()

    def _reflected_pairing(self) -> tuple[int, ...]:
        def remap(h: int) -> int:
            return 4 * _crossing(h) + (-_slot(h)) % 4

        new = [0] * len(self.pairing)
        for h in range(len(self.pairing)):
            new[remap(h)] = remap(self.pairing[h])
        return tuple(new)


def _least_encoding(pairing: tuple[int, ...], rank: list[int],
                    best: Optional[list[int]]) -> Optional[list[int]]:
    """The least token list over the even-slot starts of ``pairing``, or
    ``best`` if no start beats it."""
    for h0 in range(0, len(pairing), 2):
        enc = _encoding_below(pairing, h0, rank, best)
        if enc is not None:
            best = enc
    return best


def _encoding_below(pairing: tuple[int, ...], h0: int, rank: list[int],
                    best: Optional[list[int]]) -> Optional[list[int]]:
    """The token list from start h0 if it is below ``best`` (any list if
    ``best`` is None), else None, returned at the first token above it.

    Crossings are numbered in BFS order and anchored so the discovery slot
    maps to 0 (under) or 1 (over), preserving under/over strands.  Each
    crossing, in that order, emits its four arcs from the anchor as tokens
    ``rank[number] * 4 + anchored slot`` of the far end.  Crossings the BFS
    does not reach (a disconnected map) follow in index order, anchored at
    slot 0.
    """
    n = len(pairing) // 4
    order = [-1] * n
    offset = [0] * n
    c0 = h0 >> 2
    order[c0] = 0
    offset[c0] = h0 & 3
    numbered = 1
    queue = [c0]
    out: list[int] = []
    tied = best is not None  # equal to best so far: compare each token
    qi = 0
    while qi < len(queue):
        c = queue[qi]
        qi += 1
        base, off = 4 * c, offset[c]
        for k in range(4):
            p = pairing[base + ((off + k) & 3)]
            c2 = p >> 2
            o = order[c2]
            if o < 0:
                o = order[c2] = numbered
                numbered += 1
                offset[c2] = p & 2
                queue.append(c2)
            t = rank[o] * 4 + ((p - offset[c2]) & 3)
            if tied:
                b = best[len(out)]
                if t > b:
                    return None
                tied = t == b
            out.append(t)
        if qi == len(queue) and numbered < n:
            for c2 in range(n):
                if order[c2] < 0:
                    order[c2] = numbered
                    numbered += 1
                    queue.append(c2)
    return None if tied else out


# ---------------------------------------------------------------- PD codes

def from_pd(tuples: Iterable[tuple[int, int, int, int]]) -> Diagram:
    """Build a diagram from PD-style 4-tuples of arc labels, listed in
    counterclockwise order with an over-strand half-edge first."""
    tuples = [tuple(t) for t in tuples]
    seen: dict[int, list[int]] = {}
    for c, t in enumerate(tuples):
        if len(t) != 4:
            raise MalformedDiagram(f"crossing {c}: expected 4 arc labels")
        for pos, label in enumerate(t):
            slot = (pos + 1) % 4  # position 0 (over strand) -> slot 1
            seen.setdefault(label, []).append(4 * c + slot)
    pairing = [0] * (4 * len(tuples))
    for label, hs in seen.items():
        if len(hs) != 2:
            raise MalformedDiagram(f"arc label {label} appears {len(hs)} times")
        a, b = hs
        pairing[a] = b
        pairing[b] = a
    d = Diagram(tuple(pairing))
    d.validate()
    return d


UNKNOT = Diagram((), free_loops=1)
