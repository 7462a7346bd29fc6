"""Planar link diagrams as combinatorial maps.

A diagram is a list of crossings, each with four half-edge slots in
counterclockwise cyclic order, plus an involution pairing half-edges into
arcs.  Half-edge ``h`` lives at crossing ``h // 4``, slot ``h % 4``.  The
strand through slots 0 and 2 passes under; slots 1 and 3 carry the over
strand.  Changing a crossing is therefore a rotation of its slot labels
by one, which leaves the underlying planar map untouched.

An orientation is stored as departure flags, one byte per half-edge: 1 if
the strand leaves its crossing by it.  One direction per link component.
The strands are one flat index (``Diagram.strands``): each half-edge's
component, and the flags of the first orientation, which every other
orientation flips on some components.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass, field
from itertools import accumulate, compress, count
from typing import Iterable, NamedTuple, Optional


class MalformedDiagram(ValueError):
    """The pairing or slot data does not describe a planar link diagram."""


class UnorientedDiagram(ValueError):
    """Operation requires an orientation but none is attached."""


WHITE = 0
BLACK = 1


def _face_orbit(pairing, h0: int) -> tuple[int, ...]:
    """The face boundary through h0: h -> pairing[h] turned by one slot."""
    orbit = [h0]
    p = pairing[h0]
    h = p - (p & 3) + ((p + 1) & 3)
    while h != h0:
        orbit.append(h)
        p = pairing[h]
        h = p - (p & 3) + ((p + 1) & 3)
    return tuple(orbit)


def _seifert_circle(pairing, departs, h0: int, circle_of, k: int
                    ) -> list[int]:
    """The departures of the Seifert circle through departure h0, in
    order, each named k in ``circle_of`` as it is walked, up to the first
    one named k; ``departs[h]`` is true for each departure h."""
    circ = []
    h = h0
    while circle_of[h] != k:
        circle_of[h] = k
        circ.append(h)
        # the smoothing changes strands: the slot beside the arrival is on
        # the other strand, which leaves by that slot or the opposite one
        q = pairing[h] ^ 1
        h = q if departs[q] else q ^ 2
    return circ


def _positive(flags, c: int) -> bool:
    """Whether crossing c is positive under the departure flags: the
    (under, over) departures (0, 1) and (2, 3) give +1, (0, 3) and (2, 1)
    give -1, so +1 exactly when slots 0 and 1 agree."""
    return flags[4 * c] == flags[4 * c + 1]


def _turned(h: int) -> int:
    """Half-edge h with its slot label turned by one (under <-> over)."""
    return h - (h & 3) + ((h + 1) & 3)


def _renamed_pairing(pairing, rename) -> tuple[int, ...]:
    """``pairing`` with each half-edge h called ``rename(h)``."""
    new = [0] * len(pairing)
    for h, p in enumerate(pairing):
        new[rename(h)] = rename(p)
    return tuple(new)


# Derived structures, and cached indexes, that depend on the orientation:
# the only ones ``Diagram.oriented`` does not hand to the copy it makes.
_ORIENTED_STRUCTURES = frozenset({"seifert_circles", "circle_of"})


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
    colors: tuple[int, ...]  # face id, as in Diagram.faces() -> color
    unbounded: int
    face_of: tuple[int, ...] = field(repr=False)  # half-edge -> face id


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
    orientation: Optional[bytes] = None  # per half-edge, 1 if it departs
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @property
    def n(self) -> int:
        return len(self.pairing) // 4

    def validate(self) -> None:
        pr, f = self.pairing, self.orientation
        if len(pr) % 4 != 0:
            raise MalformedDiagram("half-edge count not a multiple of 4")
        if f is not None and not (isinstance(f, bytes) and len(f) == len(pr)
                                  and max(f, default=0) <= 1):
            raise MalformedDiagram("orientation is not 0/1 flags per half-edge")
        # along a strand, one departing end per arc and per crossing passed
        # is the same as one direction per component
        for h, p in enumerate(pr):
            if not 0 <= p < len(pr) or pr[p] != h or p == h:
                raise MalformedDiagram(f"pairing is not a fixed-point-free involution at {h}")
            if f is not None and (f[h] == f[p] or f[h] == f[h ^ 2]):
                raise MalformedDiagram("orientation is not a consistent direction choice")
        if self.free_loops < 0:
            raise MalformedDiagram("negative free loop count")
        # Euler formula: each connected piece has V - E + F = 2 - 2g <= 2
        # with E = 2V, so the sum over pieces reaches 2 per piece exactly
        # when every piece is planar
        faces = sum(1 for fc in self.faces() if fc)
        if faces - self.n != 2 * self.pieces():
            raise MalformedDiagram("map is not planar (Euler formula fails)")

    # ------------------------------------------------------------------ faces

    @_derived
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Boundary orbits h -> rotate(pair(h)); one orbit per face.

        Each free loop contributes one extra (empty) face; a diagram that is
        nothing but free loops gets one more for the unbounded region.  The
        walk names each half-edge's face as it goes, and leaves that index
        in the cache as ``face_of`` for ``checkerboard``.
        """
        pr = self.pairing
        face_of = [-1] * len(pr)
        out = []
        for h0 in range(len(pr)):
            if face_of[h0] < 0:
                f, orbit, h = len(out), [], h0
                while face_of[h] < 0:
                    face_of[h] = f
                    orbit.append(h)
                    p = pr[h]
                    h = p - (p & 3) + ((p + 1) & 3)
                out.append(tuple(orbit))
        extra = self.free_loops + (1 if self.n == 0 and self.free_loops else 0)
        out.extend(() for _ in range(extra))
        self._cache["face_of"] = tuple(face_of)
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
            return Coloring(colors=(WHITE, BLACK), unbounded=0, face_of=())
        if self.free_loops:
            raise MalformedDiagram("checkerboard needs a connected diagram")
        faces = self.faces()
        idx = self._cache["face_of"]
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
        return Coloring(colors=tuple(colors), unbounded=unbounded, face_of=idx)

    def white_corners(self, c: int) -> tuple[int, int]:
        """The two corner indices of crossing c lying in white faces."""
        return _white_corners(self.checkerboard(), c)

    def black_graph(self) -> "SignedTaitGraph":
        """One signed edge per crossing joining its two black corners."""
        return self._tait_graph(BLACK)

    @_derived
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
            # Goeritz sign +1 when corners 1 and 3 are white, calibrated with
            # the signature correction: the positive trefoil has sigma -2
            edges.append(TaitEdge(u, v, 1 if white[0] else -1, c))
        return SignedTaitGraph(tuple(vertices), tuple(edges))

    # ----------------------------------------------------------- connectivity

    @_derived
    def pieces(self) -> int:
        """The number of connected components of the 4-valent graph."""
        pr = self.pairing
        seen = [False] * self.n
        pieces = 0
        for c0 in range(self.n):
            if seen[c0]:
                continue
            pieces += 1
            seen[c0] = True
            comp = [c0]  # each crossing of the piece, in the order reached
            for c in comp:
                for h in range(4 * c, 4 * c + 4):
                    c2 = pr[h] >> 2
                    if not seen[c2]:
                        seen[c2] = True
                        comp.append(c2)
        return pieces

    def is_split(self) -> bool:
        return self.pieces() + self.free_loops > 1

    def is_connected(self) -> bool:
        return not self.is_split() and (self.n > 0 or self.free_loops == 1)

    # -------------------------------------------------------------- strands

    @_derived
    def strands(self) -> tuple[tuple[int, ...], bytes]:
        """(component, first): each half-edge's link component, numbered
        by least half-edge, and the departure flags of the first
        orientation, where each component leaves by its least half-edge."""
        pr = self.pairing
        component = [-1] * len(pr)
        first = bytearray(len(pr))
        k = 0
        for h0 in range(len(pr)):
            if component[h0] < 0:
                h = h0
                while component[h] < 0:
                    first[h] = 1
                    component[h] = component[pr[h]] = k
                    h = pr[h] ^ 2
                k += 1
        return tuple(component), bytes(first)

    @property
    def components(self) -> int:
        return max(self.strands()[0], default=-1) + 1 + self.free_loops

    def orientations(self) -> list["Diagram"]:
        """All 2^(m-1) orientation classes of the m components: bit i of
        the position reverses component i + 1 from its first direction."""
        component, first = self.strands()
        return [self.oriented(h for h, k in enumerate(component)
                              if mask << 1 >> k & 1 and not first[h])
                for mask in range(1 << max(component, default=0))]

    def oriented(self, hints: Iterable[int] = ()) -> "Diagram":
        """A copy with an orientation attached: each component leaves by
        its first direction, unless a half-edge of ``hints`` departs in
        the other one.  The copy inherits every derived structure but
        those in ``_ORIENTED_STRUCTURES``."""
        component, first = self.strands()
        flip = {component[h] for h in hints if not first[h]}
        if flip:
            first = bytes(f ^ (k in flip) for f, k in zip(first, component))
        out = Diagram(self.pairing, self.free_loops, first)
        out._cache.update((k, v) for k, v in self._cache.items()
                          if k not in _ORIENTED_STRUCTURES)
        return out

    def require_orientation(self) -> bytes:
        if self.orientation is None:
            raise UnorientedDiagram("diagram has no orientation attached")
        return self.orientation

    def crossing_sign(self, c: int) -> int:
        """+1 or -1 under the right-hand convention (writhe of the standard
        positive trefoil is +3)."""
        return 1 if _positive(self.require_orientation(), c) else -1

    def writhe(self) -> int:
        return sum(self.crossing_sign(c) for c in range(self.n))

    # ------------------------------------------------------------ local moves

    def resolve(self, c: int, kind: str) -> "Diagram":
        """Smooth crossing c.  Kind "zero" joins slots (1,2) and (3,0),
        merging corners 0 and 2 (corner k is the face of half-edge 4c+k+1,
        mod 4), the white ones exactly when c's Goeritz sign is -1; kind
        "infinity" joins (0,1) and (2,3), merging corners 1 and 3.  The
        smoothing that respects an orientation ("zero" exactly at a
        positive crossing) keeps it; the other one returns an unoriented
        diagram."""
        return self._moved(c, kind)

    def _resolve_simplified(self, c: int, kind: str,
                            removed: Optional[dict] = None) -> "Diagram":
        """``resolve(c, kind).simplify()`` of a diagram with no R1 or R2
        move left, on one copy of the pairing: only the half-edges the
        smoothing rejoins seed the clean-up.  ``removed``, an empty dict if
        given, receives the crossings removed (``_moved``)."""
        return self._moved(c, kind, [], removed=removed)

    def simplify(self) -> "Diagram":
        """Remove R1 kinks and cancelling R2 pairs until none remain:
        every kink, then the cancelling R2 pair of least half-edge, and
        again (``_moved``).  A diagram with none is returned as is."""
        # p == _turned(h), inlined: this scan and the cached faces, which
        # the checkerboard reuses, are all of a call that finds nothing
        kinks = [h for h, p in enumerate(self.pairing)
                 if p == h - (h & 3) + ((h + 1) & 3)]
        bigons = [f[0] for f in self.faces()
                  if len(f) == 2 and (f[0] ^ f[1]) & 1]
        if not kinks and not bigons:
            return self
        return self._moved(None, "", kinks, bigons)

    def _moved(self, c: Optional[int], kind: str,
               kinks: Optional[list[int]] = None,
               bigons: list[int] = (),
               removed: Optional[dict] = None) -> "Diagram":
        """The one local-move routine: smooth crossing c (unless None) by
        ``kind``, then, unless ``kinks`` is None, remove R1 kinks and
        cancelling R2 pairs: every kink, then the cancelling bigon of least
        half-edge, and again.

        It works on one copy of the pairing.  Removing a crossing contracts
        its two joins in place: a join (a, b) makes the partners of a and b
        partners, or adds a free loop when a and b are partners.  A kink,
        an arc from a slot h to the next one (``pr[h] == _turned(h)``),
        goes by the smoothing of its crossing that adds no free loop.  A
        cancelling bigon is a face of two half-edges whose slot parities
        differ (its arcs pass over at one end and under at the other); its
        two crossings go, each joining opposite slots.  A new kink or bigon
        holds a half-edge whose partner changed, so only those are checked
        besides the seeds: half-edges on kinks (``kinks``) and the least
        half-edges of cancelling bigons (``bigons``), which wait in a heap.
        The kept half-edges are renamed once at the end, each by four per
        removed crossing below it.  That keeps their order, so the least
        bigon is the least one in every numbering on the way.  An oriented
        diagram keeps its departure flags, those of the removed crossings
        deleted, when every move joins its strands through: kink and
        bigon removals do, and so does the smoothing that respects the
        orientation.  After the other smoothing the result is unoriented.

        Each removal merges two opposite corners of its crossing (corner k
        is the face of half-edge 4x+k+1) and keeps the other two apart:
        the smoothing's, a kink's monogon (parity s & 1 at slot s) and its
        opposite corner, and, for each crossing of a cancelling pair, its
        bigon corner and the opposite one.  An empty dict ``removed``, if
        given, collects each removed crossing, in removal order, with the
        parity of the corners it merged.
        """
        pr = list(self.pairing)
        # removed crossing -> parity of its merged corners, in removal order
        gone: dict[int, int] = {} if removed is None else removed
        touched: list[int] = []  # half-edges whose partner changed
        loops = self.free_loops

        def remove(a, b, a2, b2, merged):
            """Remove the crossing of a, joining a to b and a2 to b2; its
            corners of parity ``merged`` become one face."""
            nonlocal loops
            gone[a >> 2] = merged
            for a, b in ((a, b), (a2, b2)):
                x, y = pr[a], pr[b]
                if x == b:
                    loops += 1
                else:
                    pr[x], pr[y] = y, x
                    touched.append(x)
                    touched.append(y)

        if c is not None:
            if not 0 <= c < self.n:
                raise MalformedDiagram(f"no crossing {c}")
            if kind not in ("zero", "infinity"):
                raise ValueError(f"unknown resolution kind {kind!r}")
            o = 4 * c + (kind == "zero")
            remove(o, _turned(o), o ^ 2, _turned(o ^ 2), kind == "infinity")
        if kinks is not None:
            heap = sorted(bigons)
            while True:
                for h in touched:
                    if h >> 2 not in gone:
                        p = pr[h]
                        q = _turned(p)
                        if p == _turned(h):
                            kinks.append(h)
                        elif _turned(pr[q]) == h and (h ^ q) & 1:
                            heapq.heappush(heap, min(h, q))
                touched.clear()
                if kinks:
                    h = kinks.pop()
                    if h >> 2 not in gone and pr[h] == _turned(h):
                        o = _turned(h)
                        remove(o, h ^ 2, o ^ 2, h, h & 1)
                elif heap:
                    h = heapq.heappop(heap)
                    if h >> 2 in gone:
                        continue
                    q = _turned(pr[h])
                    if _turned(pr[q]) == h and (h ^ q) & 1:
                        # the bigon is corner (x - 1) & 3 at half-edge x
                        for x in (h, q):
                            e = x - (x & 3)
                            remove(e, e + 2, e + 1, e + 3, x & 1 ^ 1)
                else:
                    break
        shift = list(accumulate((4 * (x in gone) for x in range(self.n)),
                                initial=0))
        new = [p - shift[p >> 2] for p in pr]
        keep = self.orientation is not None and (
            c is None or (kind == "zero") == _positive(self.orientation, c))
        flags = bytearray(self.orientation if keep else ())
        for x in sorted(gone, reverse=True):
            del new[4 * x:4 * x + 4], flags[4 * x:4 * x + 4]
        return Diagram(tuple(new), loops, bytes(flags) if keep else None)

    def resolve_oriented(self, c: int) -> tuple["Diagram", "Diagram"]:
        """(L0, Linf): the orientation-respecting smoothing, which keeps
        the orientation, and the other one in its first orientation.  Linf
        has no induced orientation; its first one serves the e-relation,
        which holds for every orientation (``mo_relations_check``)."""
        # the orientation smoothing joins the under departure to the over
        # arrival: slots (0, 3) or (2, 1), kind "zero", exactly when the
        # over departure follows the under one, at a positive crossing
        kind0, kind_inf = (("zero", "infinity") if self.crossing_sign(c) == 1
                           else ("infinity", "zero"))
        return self.resolve(c, kind0), self.resolve(c, kind_inf).oriented()

    def crossing_change(self, c: int) -> "Diagram":
        """Flip over/under at c (rotate its slot labels by one)."""
        if not 0 <= c < self.n:
            raise MalformedDiagram(f"no crossing {c}")
        return self._renamed(lambda h: _turned(h) if h >> 2 == c else h)

    def mirror(self) -> "Diagram":
        """Change every crossing at once: each slot label turns by one."""
        return self._renamed(_turned)

    def relabeled(self, relabel) -> "Diagram":
        """The diagram with crossing c's slot 0 renamed ``relabel[c]`` and
        its slot s the half-edge s slots on.  With ``relabel`` a crossing
        permutation whose turns are even, every under strand stays under
        and the map is unchanged."""
        def rename(h):
            r = relabel[h >> 2]
            return r - (r & 3) + ((r + h) & 3)
        return self._renamed(rename)

    def _renamed(self, rename) -> "Diagram":
        flags = self.orientation
        if flags is not None:
            moved = bytearray(len(flags))
            for h in compress(count(), flags):
                moved[rename(h)] = 1
            flags = bytes(moved)
        return Diagram(_renamed_pairing(self.pairing, rename),
                       self.free_loops, flags)

    # -------------------------------------------------------------- Seifert

    @_derived
    def seifert_circles(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of the orientation-respecting smoothing (departure
        half-edges).  The walk names each departure's circle by its place
        here as it goes, and leaves that index in the cache as
        ``circle_of`` (-1 on arrivals)."""
        flags = self.require_orientation()
        circle_of = [-1] * len(flags)
        circles = []
        for h0, departs in enumerate(flags):
            if departs and circle_of[h0] < 0:
                circles.append(tuple(_seifert_circle(
                    self.pairing, flags, h0, circle_of, len(circles))))
        self._cache["circle_of"] = tuple(circle_of)
        return tuple(circles)

    def seifert_genus_diagram(self) -> int:
        """Genus of the Seifert-algorithm surface: (c - s + 2 - m)/2.

        Each oriented smoothing changes the number of components by one,
        so s = c + m (mod 2) and the halving is exact."""
        s = len(self.seifert_circles()) + self.free_loops
        return (self.n - s + 2 - self.components) // 2

    def is_special(self) -> bool:
        """Orientation smoothing merges same-colored corners at every
        crossing: Goeritz sign times crossing sign is constant."""
        return len({e.sign * self.crossing_sign(e.crossing)
                    for e in self.white_graph().edges}) <= 1

    # ------------------------------------------------------------- predicates

    def is_alternating(self) -> bool:
        """Over/under alternates: no arc joins two slots of one parity."""
        return all((h ^ p) & 1 for h, p in enumerate(self.pairing))

    # --------------------------------------------------------- canonical key

    def canonical_key(self) -> bytes:
        """Deterministic key, equal for relabelings of the same map
        (including a relabeling reflection of the plane).  The crossings
        must form one piece, else ``MalformedDiagram``; free loops only set
        the ``loops:k;`` prefix.

        The key is the least, as a string, of the BFS encodings
        ``"a.b,c.d,..."`` over every start half-edge of the map and of its
        reflection (see ``_encoding_below``).  The search rests on these
        facts:

        - A start on slot 1 or 3 anchors its crossing at slot 0 or 2, like
          the start one slot before it, so only the 2n even-slot starts
          per reflection are distinct.
        - With ``rank`` sorting 0..n-1 by their decimal strings, the token
          ``rank[a] * 4 + b`` of an arc ``a.b`` orders token lists as the
          strings order: ``.`` and ``,`` sort below every digit, so a
          number's string sorts before the strings it is a prefix of.
        - A start's first two tokens, its head, are read off the pairing
          (``_head``), so the BFS runs only from the starts with the
          least head.
        - A crossing's four arcs are encoded when the BFS takes it from the
          queue, and by then every neighbour has its number.  So a start
          is abandoned at its first token above the best list so far.
        - Every complete BFS reaches every crossing, so two starts that
          tie number the crossings alike, and the two numberings map the
          map onto itself or onto its reflection.  That map takes each
          start to one with the same list, and no start is run whose list
          is known equal to that of a start run before
          (``_least_encoding``).
        """
        return self._canonical()[0]

    def canonical_numbering(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(order, anchor) of the BFS that gives the canonical key: crossing
        c is numbered order[c], and its slot anchor[c], 0 or 2, is the one
        numbered 0.  If a reflection won the key, the same numbering
        renames the map itself into the key's reflection, since the
        reflection fixes slots 0 and 2."""
        return self._canonical()[1:]

    @_derived
    def _canonical(self) -> tuple[bytes, tuple[int, ...], tuple[int, ...]]:
        """The key, and the numbering and anchors of the BFS that gives it."""
        n = self.n
        if n == 0:
            return f"loops:{self.free_loops}".encode(), (), ()
        rank, names = _key_tables(n)
        run = _least_encoding((self.pairing, self._reflected_pairing()), rank)
        text = ",".join(map(names.__getitem__, run.tokens))
        return ((f"loops:{self.free_loops};" + text).encode(),
                tuple(run.order), tuple(run.anchor))

    @_derived
    def sweep_order(self) -> tuple[int, ...]:
        """The crossings of a connected diagram in the order of a greedy
        frontier sweep.  Ties go by canonical number
        (``canonical_numbering``), so every labeling of the map gets the
        same order of its crossings.

        Neighbours are counted by arcs, so a crossing twice joined to
        another is its neighbour twice.  A sweep takes next the crossing
        with the most processed neighbours, then the fewest unprocessed
        ones, then the least canonical number.  Its width is the largest
        number of arcs joining the processed crossings to the rest.  One
        sweep runs from each start, taken by canonical number, and the
        first of least width is kept; a sweep stops once its width
        reaches the least so far.  Each sweep keeps its candidates in a
        heap, so the whole takes O(n^2 log n).
        """
        if not self.is_connected():
            raise MalformedDiagram("sweep order needs a connected diagram")
        number, _ = self.canonical_numbering()
        pr = self.pairing
        arcs = [[pr[4 * c + s] >> 2 for s in range(4)
                 if pr[4 * c + s] >> 2 != c] for c in range(self.n)]
        best, width = (), len(pr)
        for start in sorted(range(self.n), key=number.__getitem__):
            order = _sweep(arcs, number, start, width)
            if order is not None:
                best, width = order
        return best

    def _reflected_pairing(self) -> tuple[int, ...]:
        """The pairing with slots 1 and 3 of every crossing swapped: each
        entry renamed, then each crossing's slots 1 and 3 exchanged."""
        new = [h ^ ((h & 1) << 1) for h in self.pairing]
        new[1::4], new[3::4] = new[3::4], new[1::4]
        return tuple(new)


@functools.lru_cache(maxsize=256)
def _key_tables(n: int) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """For n crossings: ``rank``, which sorts 0..n-1 by their decimal
    strings, and the name ``"a.b"`` of each token ``rank[a] * 4 + b``."""
    by_rank = sorted(range(n), key=str)
    rank = [0] * n
    for r, a in enumerate(by_rank):
        rank[a] = r
    return tuple(rank), tuple(f"{a}.{b}" for a in by_rank for b in range(4))


def _head(pairing: tuple[int, ...], h0: int,
          rank: tuple[int, ...]) -> tuple[int, int]:
    """The first two tokens of the list from the even start h0: the arcs
    of slots h0 and h0 + 1 of its crossing c, which is numbered 0 and
    anchored at h0.  A far end off c is on the next crossing numbered,
    anchored at the even slot at or below it."""
    c = h0 >> 2
    p, q = pairing[h0], pairing[h0 + 1]
    if p >> 2 == c:
        t0, new = (p - h0) & 3, 1
    else:
        t0, new = rank[1] * 4 + (p & 1), 2
    if q >> 2 == c:
        t1 = (q - h0) & 3
    elif q >> 2 == p >> 2:
        t1 = rank[1] * 4 + ((q - (p & 2)) & 3)
    else:
        t1 = rank[new] * 4 + (q & 1)
    return t0, t1


class _Run(NamedTuple):
    """One BFS of ``_encoding_below``."""
    tokens: list[int]  # up to and including the first above the best list
    order: list[int]  # crossing -> its number
    crossings: list[int]  # in the order numbered
    anchor: list[int]  # crossing -> its slot numbered 0


def _least_encoding(pairings: tuple[tuple[int, ...], ...],
                    rank: tuple[int, ...]) -> _Run:
    """The first run with the least token list over the even-slot starts
    of ``pairings``, a map and its reflection.

    Start ``r * 2n + h0 // 2`` is the even half-edge h0 of
    ``pairings[r]``.  The BFS runs only from the starts with the least
    head.  ``cls`` is a union-find forest whose classes hold starts with
    equal lists, and ``ran`` marks each root whose class holds a start
    that has run; no other start of such a class runs.
    """
    n = len(pairings[0]) // 4
    heads = [_head(pr, h0, rank)
             for pr in pairings for h0 in range(0, 4 * n, 2)]
    least = min(heads)
    starts = [s for s, head in enumerate(heads) if head == least]
    cls = list(range(4 * n))
    ran = [False] * (4 * n)
    best: Optional[list[int]] = None
    for s in starts:
        root = _root(cls, s)
        if ran[root]:
            continue
        ran[root] = True
        r = s // (2 * n)
        run = _encoding_below(pairings[r], 2 * (s - r * 2 * n), rank, best)
        if best is None or run.tokens < best:
            best, best_run, best_r = run.tokens, run, r
        elif run.tokens == best:
            _merge_images(cls, ran, starts, best_run, run, best_r ^ r)
    return best_run


def _root(cls: list[int], s: int) -> int:
    """The root of start s's class, halving the path to it."""
    while cls[s] != s:
        cls[s] = s = cls[cls[s]]
    return s


def _merge_images(cls: list[int], ran: list[bool], starts: list[int],
                  a: _Run, b: _Run, flip: int) -> None:
    """Join the class of each start in ``starts`` with its image's under
    the isomorphism that takes a's k-th crossing and anchor to b's (the
    two BFS tie).  It turns each crossing by 0 or 2 slots, so on even
    half-edges it also maps the reflection of a's pairing to that of b's;
    ``flip`` is 1 if a's and b's pairings are reflections of each other."""
    half = len(cls) // 2
    for s in starts:
        r, e = divmod(s, half)  # e = h0 // 2 = 2 * crossing + slot // 2
        c = e >> 1
        cb = b.crossings[a.order[c]]
        x = (e & 1) ^ ((a.anchor[c] ^ b.anchor[cb]) >> 1)
        u, v = _root(cls, s), _root(cls, (r ^ flip) * half + 2 * cb + x)
        if u != v:
            cls[v] = u
            ran[u] = ran[u] or ran[v]


def _encoding_below(pairing: tuple[int, ...], h0: int, rank: tuple[int, ...],
                    best: Optional[list[int]]) -> _Run:
    """The BFS from start h0, abandoned at its first token above
    ``best`` (never if ``best`` is None).

    Crossings are numbered in BFS order and anchored so the discovery slot
    maps to 0 (under) or 1 (over), preserving under/over strands.  Each
    crossing, in that order, emits its four arcs from the anchor as tokens
    ``rank[number] * 4 + anchored slot`` of the far end.  A complete BFS
    that leaves a crossing unnumbered raises ``MalformedDiagram``: the
    crossings do not form one piece.
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
        a = 4 * c + offset[c]  # slots 0 and 1 from the anchor, then 2 and 3
        b = a ^ 2
        for h in (a, a + 1, b, b + 1):
            p = pairing[h]
            c2 = p >> 2
            o = order[c2]
            if o < 0:
                o = order[c2] = numbered
                numbered += 1
                offset[c2] = p & 2
                queue.append(c2)
            t = rank[o] * 4 + ((p - offset[c2]) & 3)
            if tied:
                u = best[len(out)]
                if t > u:
                    out.append(t)
                    return _Run(out, order, queue, offset)
                tied = t == u
            out.append(t)
    if numbered < n:
        raise MalformedDiagram("canonical key needs a map whose crossings "
                               "form one piece")
    return _Run(out, order, queue, offset)


def _sweep(arcs: list[list[int]], number: tuple[int, ...], start: int,
           limit: int) -> Optional[tuple[tuple[int, ...], int]]:
    """The greedy sweep of ``Diagram.sweep_order`` from ``start`` over the
    arcs ``arcs[c]`` leaving each crossing c for another one, with its
    width; None once the width reaches ``limit``."""
    n = len(arcs)
    done = [0] * n  # arcs from each crossing to processed ones
    taken = [False] * n
    heap = [(0, 0, number[start], start)]
    order = []
    cut = width = 0
    while heap:
        _, _, _, c = heapq.heappop(heap)
        if taken[c]:
            continue
        taken[c] = True
        order.append(c)
        for x in arcs[c]:
            if taken[x]:
                cut -= 1
            else:
                cut += 1
                done[x] += 1
                heapq.heappush(heap, (-done[x], len(arcs[x]) - done[x],
                                      number[x], x))
        if cut >= limit:
            return None
        width = max(width, cut)
    return tuple(order), width


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
