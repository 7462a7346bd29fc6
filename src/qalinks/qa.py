"""Recursive quasi-alternating certification.

A certificate is a binary tree: at each node some crossing's two smoothings
both have nonzero determinant summing to the parent determinant, and both
smoothings are certified recursively; leaves are 0-crossing unknots.  The
determinant strictly decreases along every branch, so recursion terminates.
A node's crossing index refers to its simplified diagram, so the search memo
is keyed by that diagram and trusts its own entries without replaying them.

The search branches in the sweep order of the map (``Diagram.sweep_order``):
it renames the simplified input once, crossing c to its sweep rank, turned
by 0 or 2 slots onto its canonical anchor, and then tries candidates by
index.  A local move renames by an order-preserving offset, so every node
branches in that order, and every labeling of a map gets the same search.
In a fixed order with frontier width w at most about n·Catalan(w/2)
diagrams arise (the Kauffman state-sum count); the search leaves the order
where a crossing fails the determinant sum, so this bound is a heuristic.
Distinct nodes grow linearly on CF[2,-3]xk (29 / 59 / 119 at k = 6 / 12 /
24) and on P(3^k) (36 / 76 at k = 8 / 16).

Memo hits make the certificate a DAG.  Its JSON is the tree, zero child
first, with the fields key, crossing, det, det0, detInf and children; it
prints each shared node once, and writes every later occurrence as a
back-reference "#k" to an already completed node, so its size grows with
the distinct nodes, not with the 2·det - 1 nodes of the tree.  The root
also holds "relabel", the renaming the search ran in: per crossing of the
simplified input, the new half-edge of its slot 0.  Its crossing indexes
the simplified input in the input's own labels.  The field is absent when
the renaming changes nothing.

The search reads a node's determinant and its crossings' resolution
determinants off signed spanning-tree counts T of a Tait graph G: in index
order as the loop reaches them, one deletion minor T(G - e) per twist
class, the contraction following from T(G) = T(G - e) + sign(e) T(G/e).
The root takes its white graph and T(G); a child is G - e or G/e, cleaned
up by deletions and contractions, so it inherits its graph and T from its
parent and walks no faces.  The loop stops at the first crossing whose two
children certify, so a node takes one minor per twist class it reached,
and the root T(G) besides.  At a crossing that admits the determinant sum it
searches the child of smaller determinant first, the zero child on a tie,
and leaves the crossing as soon as a child fails, so a refutation seldom
searches the larger subtree.  A child's answer depends on its diagram
alone, so this order changes which searches run, and, within the budget,
no answer.  The search builds only the resolutions it recurses into, and
computes no key below the root: a node reads its key when it is printed.
The root is a fresh node on every call, never a memo entry.
Certificates are independently replayable (validate_certificate), with
one spanning-tree determinant on the black graph and fresh resolutions
per node, in one loop over an explicit stack, so replay meets no
recursion limit at any depth.  Replay compares each node's key with the
key of the diagram it replays on, except on the very diagram a
search-built node reads its key off, where the two agree by definition.
So it runs the key BFS for the root, for every parsed node, and for a
search-built node only where it replays on another diagram.  Replay
checks that a root's relabel is a crossing permutation with even turns
(an odd turn changes a crossing) before it resolves the renamed diagram;
it rejects a relabel on any other node, and runs no sweep or search code.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple, Optional, Sequence

from .cfrac import PreconditionViolated
from .diagram import Diagram
from .invariants import det_spanning_trees, determinant, laplacian_minor


# ------------------------------------------------------------- certificates

@dataclass(frozen=True, eq=False)
class QACertificate:
    """Node of a certification tree, whose subtrees may be shared; leaf
    (the unknot) iff it has no dets.  Nodes compare and hash by identity,
    as the certificate's back-references do.

    A parsed node holds its key text.  A search-built node holds the
    (pairing, free_loops) of the simplified diagram it was memoized under,
    the memo key's own tuples, and reads its key off that diagram the first
    time ``key`` is asked for; only the nodes of a printed certificate pay
    for the key BFS.  A root is built by ``certify`` with the key it read
    off the input's numbering."""
    _key: Optional[str] = None
    crossing: Optional[int] = None
    dets: Optional[tuple[int, int, int]] = None  # (det L, det L0, det Linf)
    children: Optional[tuple["QACertificate", "QACertificate"]] = None
    # root only: relabel[c] is the new half-edge of slot 0 of crossing c of
    # the simplified input, the renaming the search ran in
    relabel: Optional[tuple[int, ...]] = None
    source: Optional[tuple[tuple[int, ...], int]] = field(default=None,
                                                          repr=False)

    @cached_property
    def key(self) -> Optional[str]:
        if self._key is None and self.source is not None:
            return Diagram(*self.source).canonical_key().decode()
        return self._key

    @property
    def is_leaf(self) -> bool:
        return self.dets is None

    @staticmethod
    def unknot() -> "QACertificate":
        return QACertificate()

    def to_obj(self):
        """JSON data: the tree, zero child first, with every internal node
        after its first occurrence written "#k", k its 0-based position in
        completion order (children complete before their parent)."""
        index: dict[int, int] = {}  # id(node) -> completion position
        done = []  # the objects of the subtrees walked so far
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if node.is_leaf:
                done.append("unknot")
            elif expanded:
                kids = done[-2:]
                del done[-2:]
                index[id(node)] = len(index)
                obj = {
                    "key": node.key,
                    "crossing": node.crossing,
                    "det": node.dets[0],
                    "det0": node.dets[1],
                    "detInf": node.dets[2],
                    "children": kids,
                }
                if node.relabel is not None:
                    obj["relabel"] = list(node.relabel)
                done.append(obj)
            elif id(node) in index:
                done.append(f"#{index[id(node)]}")
            else:
                stack += [(node, True), (node.children[1], False),
                          (node.children[0], False)]
        return done[0]

    @staticmethod
    def from_obj(obj) -> "QACertificate":
        """Inverse of to_obj; a "#k" becomes the very node it names, so the
        result shares subtrees as the search did.  A reference-free tree
        loads as a tree."""
        leaf = QACertificate.unknot()
        nodes = []  # internal nodes in completion order
        done = []
        stack = [(obj, False)]
        while stack:
            item, expanded = stack.pop()
            if expanded:
                kids = tuple(done[-2:])
                del done[-2:]
                relabel = item.get("relabel")
                node = QACertificate(
                    item["key"], item["crossing"],
                    (item["det"], item["det0"], item["detInf"]), kids,
                    None if relabel is None else tuple(relabel))
                nodes.append(node)
                done.append(node)
            elif item == "unknot":
                done.append(leaf)
            elif isinstance(item, str):
                done.append(_referenced(item, nodes))
            else:
                _check_node_obj(item)
                stack += [(item, True), (item["children"][1], False),
                          (item["children"][0], False)]
        return done[0]


_REFERENCE = re.compile(r"#(0|[1-9][0-9]*)")


def _referenced(ref: str, nodes: list) -> QACertificate:
    m = _REFERENCE.fullmatch(ref)
    if m is None:
        raise PreconditionViolated(f"malformed certificate reference {ref!r}")
    k = int(m.group(1))
    if k >= len(nodes):
        raise PreconditionViolated(
            f"certificate reference {ref} names no completed node")
    return nodes[k]


def _check_node_obj(item) -> None:
    if not isinstance(item, dict):
        raise PreconditionViolated("certificate nodes must be objects")
    for field in ("key", "crossing", "det", "det0", "detInf", "children"):
        if field not in item:
            raise PreconditionViolated(f"certificate node lacks {field!r}")
    if not isinstance(item["key"], str):
        raise PreconditionViolated("certificate keys must be strings")
    for field in ("crossing", "det", "det0", "detInf"):
        if type(item[field]) is not int:
            raise PreconditionViolated(
                f"certificate {field!r} must be an integer")
    kids = item["children"]
    if not isinstance(kids, list) or len(kids) != 2:
        raise PreconditionViolated("certificate nodes have two children")
    if "relabel" in item and not (
            isinstance(item["relabel"], list)
            and all(type(r) is int for r in item["relabel"])):
        raise PreconditionViolated(
            "a certificate relabel must be a list of integers")


@dataclass(frozen=True)
class CertifyOutcome:
    kind: str  # Certified | NotCertifiedHere | DetZeroSplit | BudgetExceeded
    certificate: Optional[QACertificate] = None
    reason: str = ""

    @property
    def certified(self) -> bool:
        return self.kind == "Certified"


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self) -> bool:
        self.used += 1
        return self.used <= self.limit


def certify(d: Diagram, budget: int = 100000,
            memo: Optional[dict] = None) -> CertifyOutcome:
    """Search for a quasi-alternating certificate of the diagram.

    The search renames the simplified diagram once into its sweep order
    (``_sweep_relabel``) and then tries candidates by index; a local move
    keeps the index order, so every node branches in that one order.  It
    runs unoriented, as the memo key is: QA ignores orientation.  The root
    records the renaming in ``relabel`` (absent if it changes nothing) and
    keeps its crossing in the input's labels.

    Negative (NotCertifiedHere) answers are diagram-relative, not link
    facts.  Memo entries are keyed by the simplified diagram the
    certificate's crossing indices refer to, so a stored certificate is
    reused as is and the search never replays one.  The root is a fresh
    node on every call and is not stored, so a later call on the same memo
    runs the sweep and reads the key of its root again.  A negative entry
    is stored only once every child search has finished within the
    budget, so it is the answer any budget gets.
    """
    if budget < 1:
        raise PreconditionViolated("budget must be positive")
    if memo is None:
        memo = {}
    tally = _Budget(budget)
    s = d.simplify()
    if s.n == 0 or s.is_split():
        return _certify(s, tally, memo)
    relabel = _sweep_relabel(s)
    # a renaming of a simplified diagram has no R1 or R2 move left
    t = Diagram(s.relabeled(relabel).pairing, s.free_loops)
    out = _certify(t, tally, memo)
    if not out.certified:
        return out
    inner = out.certificate
    # even turns keep the map, so t's key is the one _sweep_relabel read
    text = s.canonical_key().decode()
    if t.pairing == s.pairing:
        crossing, relabel = inner.crossing, None
    else:
        crossing = next(c for c, r in enumerate(relabel)
                        if r >> 2 == inner.crossing)
    return CertifyOutcome("Certified", QACertificate(
        text, crossing, inner.dets, inner.children, relabel))


def _sweep_relabel(s: Diagram) -> tuple[int, ...]:
    """The renaming of the connected diagram s into its sweep order:
    crossing c becomes its rank in ``s.sweep_order()``, turned so that its
    canonical anchor is slot 0.  The turns are even, so the map is kept,
    and they come from the map, so every labeling of s is renamed into one
    diagram, or into its reflection where the key's reflection won for
    one labeling and not for another."""
    _, anchor = s.canonical_numbering()
    relabel = [0] * s.n
    for rank, c in enumerate(s.sweep_order()):
        relabel[c] = 4 * rank + anchor[c]
    return tuple(relabel)


class _Tait(NamedTuple):
    """A search node's Tait graph: one colour class of its faces as
    vertices, one signed edge (u, v, sign) per crossing in index order
    joining its two corners of that colour, and the signed spanning-tree
    count T of the graph.  The sign is +1 when corners 1 and 3 are of the
    colour, so contracting an edge merges corners 0 and 2, the smoothing
    of kind "zero", exactly when its sign is -1."""
    vertices: Sequence[int]
    edges: list[tuple[int, int, int]]
    total: int


def _white_tait(s: Diagram) -> _Tait:
    """The root's graph: the white Tait graph of s and its T."""
    w = s.white_graph()
    edges = [(e.u, e.v, e.sign) for e in w.edges]
    return _Tait(w.vertices, edges, laplacian_minor(w.vertices, edges))


def _certify(s: Diagram, budget: _Budget, memo: dict,
             parent: Optional[tuple] = None) -> CertifyOutcome:
    """The search on the simplified diagram s: its certificate is that of
    the first crossing, in index order, that admits the determinant sum
    and whose two children certify, each crossing's children searched
    smaller determinant first.  The root (``parent`` None) takes its white
    graph; a child gets ``parent``, the arguments of ``_inherited``."""
    if not budget.spend():
        return CertifyOutcome("BudgetExceeded",
                              reason=f"node limit {budget.limit} reached")
    if s.n == 0:
        if s.free_loops == 1:
            return CertifyOutcome("Certified", QACertificate.unknot())
        return CertifyOutcome("DetZeroSplit", reason="split unlink")
    # entries exist only for non-split diagrams of determinant at least 2
    key = (s.pairing, s.free_loops)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if parent is not None:
        # a child is searched only at determinant at least 1, and a split
        # diagram has determinant 0
        graph = _inherited(*parent)
    elif s.is_split():
        return CertifyOutcome("DetZeroSplit", reason="split diagram")
    else:
        graph = _white_tait(s)
    det = abs(graph.total)
    if det == 0:
        return CertifyOutcome("NotCertifiedHere", reason="determinant zero")
    if det == 1:
        return CertifyOutcome(
            "NotCertifiedHere",
            reason="determinant 1 but not visibly the unknot")
    for c, (det0, detinf, deleted) in enumerate(_resolution_dets(graph)):
        if not (det0 >= 1 and detinf >= 1 and det == det0 + detinf):
            continue
        assert det0 < det and detinf < det  # strict decrease
        # the child of smaller determinant first (the zero child on a
        # tie): its search is the cheaper one, and c fails as soon as one
        # child does
        kinds = ["zero", "infinity"]
        if detinf < det0:
            kinds.reverse()
        found = {}
        for kind in kinds:
            removed = {}
            child = s._resolve_simplified(c, kind, removed)
            r = _certify(child, budget, memo, (graph, deleted, removed))
            if r.kind == "BudgetExceeded":
                return r
            if not r.certified:
                break
            found[kind] = r.certificate
        else:
            cert = QACertificate(None, c, (det, det0, detinf),
                                 (found["zero"], found["infinity"]),
                                 source=key)
            outcome = memo[key] = CertifyOutcome("Certified", cert)
            return outcome
    outcome = memo[key] = CertifyOutcome(
        "NotCertifiedHere",
        reason=("no crossing admits the determinant sum with both "
                "resolutions certified"))
    return outcome


def _resolution_dets(g: _Tait) -> Iterator[tuple[int, int, int]]:
    """A lazy sequence of (det of resolve(c, "zero"), det of
    resolve(c, "infinity"), T(G - e)) for the crossings c of a connected
    diagram in index order, e the edge of c in its graph G (``_Tait``).  A
    crossing's deletion minor is taken when the sequence reaches it, so a
    caller that stops early, or never reads the sequence, takes no more.

    Deleting e gives one smoothing and contracting it the other, kind
    "zero" exactly when e's sign is -1.  The matrix-tree identity
    T(G) = T(G - e) + sign(e) T(G/e) gives |T(G/e)| = |T(G) - T(G - e)|,
    so one deletion minor per edge read is all the search takes.  A loop
    deletes to T(G) and so contracts to 0: merging the corners of one
    face splits the diagram.  Edges with the same ends and sign (one twist
    region) are swapped by an automorphism of G, so each such parallel
    class is counted once.
    """
    vertices, edges, total = g
    by_class: dict[tuple, tuple[int, int, int]] = {}
    for i, (u, v, sign) in enumerate(edges):
        cls = (min(u, v), max(u, v), sign)
        if cls not in by_class:
            deleted = laplacian_minor(vertices, edges[:i] + edges[i + 1:])
            contracted = abs(total - deleted)
            by_class[cls] = ((contracted, abs(deleted), deleted) if sign < 0
                             else (abs(deleted), contracted, deleted))
        yield by_class[cls]


def _inherited(g: _Tait, deleted: int, removed: dict) -> _Tait:
    """The graph of a child of the node of graph g: the smoothing of its
    crossing c, whose deletion minor is ``deleted``, and the clean-up
    after it.  ``removed`` maps each removed crossing, c first, to the
    parity of the corners its removal merged (``Diagram._moved``).

    A removal that merges the corners of g's colour contracts the
    crossing's edge (the faces it joins become one vertex), and any other
    deletes it; kept crossings keep their edges, ends renamed, and signs,
    in index order.  The smoothing leaves T(G - e), or T(G/e) =
    (T(G) - T(G - e)) sign(e).  In the clean-up, a kink's edge is a loop
    or pendant, and a cancelling pair's two edges, of opposite signs, are
    parallel or in series through the bigon: a loop or a parallel pair
    deletes to T, a pendant edge contracts to T sign(e), and a series
    pair to -T, that is, T times both signs.  So each clean-up
    contraction multiplies T by its edge's sign.
    """
    vertices, edges, total = g
    joined: dict[int, int] = {}  # a contracted vertex -> the one it joined

    def find(v):
        while v in joined:
            v = joined[v]
        return v

    for i, (x, parity) in enumerate(removed.items()):
        u, v, sign = edges[x]
        contract = parity == (sign > 0)
        if contract:
            u, v = find(u), find(v)
            if u != v:
                joined[v] = u
        if i == 0:
            total = (total - deleted) * sign if contract else deleted
        elif contract:
            total *= sign
    rep = {v: find(v) for v in joined}
    return _Tait([v for v in vertices if v not in joined],
                 [(rep.get(u, u), rep.get(v, v), sign)
                  for x, (u, v, sign) in enumerate(edges)
                  if x not in removed], total)


def validate_certificate(cert: QACertificate, d: Diagram) -> bool:
    """Replay a certificate against a diagram with independent arithmetic
    (spanning-tree determinants, fresh resolutions).

    Each node proves its own determinant with one spanning-tree count; a
    parent checks that its stored resolution determinants are the ones its
    children prove (1 for an unknot leaf).  A subtree shared by several
    parents is checked once per diagram it is applied to.  Each node's key
    must be the canonical key of its simplified diagram.  Replay recomputes
    it for the root, for a node that holds its key text (parsed by
    ``from_obj``, or given one), and for a search-built node replayed on a
    diagram other than its ``source``; on its source, a search-built node's
    key is that diagram's key by definition.  A root with a
    ``relabel`` must carry a crossing permutation with even turns; its
    crossing indexes the simplified diagram, and its children are replayed
    on the resolutions of the renamed one.  No other node may carry one.

    The replay is one loop over an explicit stack, zero child first, so
    no certificate depth meets Python's recursion limit.
    """
    # (node identity, simplified diagram) of each node whose own checks
    # passed, its children already on the stack; the first failure ends
    # the replay.  Every node outlives the call, so no identity is reused.
    checked = set()
    stack = [(cert, d)]
    while stack:
        node, s = stack.pop()
        s = s.simplify()
        key = (id(node), s.pairing, s.free_loops)
        if key in checked:
            continue
        if node.is_leaf:
            if s.n == 0 and s.free_loops == 1:
                continue
            return False
        if s.n == 0 or s.is_split():
            return False
        # a search-built node reads its key off its source, so on that very
        # diagram the key matches by definition
        own_source = node._key is None and node.source == key[1:]
        if not own_source and s.canonical_key().decode() != node.key:
            return False
        if not (0 <= node.crossing < s.n):
            return False
        det, det0, detinf = node.dets
        if det != det0 + detinf or det0 < 1 or detinf < 1:
            return False
        if det_spanning_trees(s.black_graph()) != det:
            return False
        c = node.crossing
        if node.relabel is not None:
            if not _is_relabeling(node.relabel, s.n):
                return False
            s, c = s.relabeled(node.relabel), node.relabel[c] >> 2
        zero, infinity = node.children
        d0, dinf = s.resolve(c, "zero"), s.resolve(c, "infinity")
        for child_d, child_det, child in ((d0, det0, zero),
                                          (dinf, detinf, infinity)):
            if child_d.is_split() or child.relabel is not None:
                return False
            if (1 if child.is_leaf else child.dets[0]) != child_det:
                return False
        checked.add(key)
        stack += [(infinity, dinf), (zero, d0)]  # the zero child first
    return True


def _is_relabeling(relabel: tuple[int, ...], n: int) -> bool:
    """One half-edge per crossing, on an even slot (an odd turn would
    change the crossing), and every crossing named once."""
    return (len(relabel) == n and all(r & 1 == 0 for r in relabel)
            and sorted(r >> 2 for r in relabel) == list(range(n)))


# ---------------------------------------------------------- mirror identity

def mirror_identity_check(d: Diagram, p: int,
                          dets: tuple[int, int, int]) -> bool:
    """det(L+) = det L0 + det Linf holds iff the crossing-changed diagram
    has determinant |det L0 - det Linf|; dets is (det L+, det L0, det Linf)
    for L+ = d and its two resolutions at p."""
    det_l, det0, detinf = dets
    sum_holds = det_l == det0 + detinf
    mirror_holds = determinant(d.crossing_change(p)) == abs(det0 - detinf)
    return sum_holds == mirror_holds


# ------------------------------------------------------------ twist families

def _extend_once(d: Diagram, p: int) -> Diagram:
    """Insert one crossing extending crossing p into a same-handed twist
    region (an alternating bigon on the slot 0/3 side)."""
    q = d.n
    pairing = list(d.pairing) + [0] * 4

    def pair(a, b):
        pairing[a] = b
        pairing[b] = a

    a, b = pairing[4 * p + 0], pairing[4 * p + 3]
    pair(a, 4 * q + 0)
    pair(b, 4 * q + 3)
    pair(4 * p + 0, 4 * q + 1)
    pair(4 * p + 3, 4 * q + 2)
    out = Diagram(tuple(pairing), d.free_loops)
    out.validate()
    return out


def twist_extend(d: Diagram, cert: QACertificate, p: int, n: int):
    """Replace crossing p (the certificate's root crossing) by a twist
    region of n same-sign crossings; returns the diagram and a certificate
    for it.  Like the certificate's crossing indices, p indexes
    d.simplify(), and the twist is built on that simplified diagram; n = 1
    returns it unchanged."""
    if n < 1:
        raise PreconditionViolated("twist length must be positive")
    if cert.is_leaf or cert.crossing != p:
        raise PreconditionViolated("p must be the certificate root crossing")
    d = d.simplify()
    if not validate_certificate(cert, d):
        raise PreconditionViolated("certificate does not certify the diagram")
    out = d
    for _ in range(n - 1):
        out = _extend_once(out, p)
    result = certify(out)
    if not result.certified:
        raise AssertionError("extended diagram failed to re-certify")
    return out, result.certificate


# --------------------------------------------------- spanning-tree counting

def _tree_counts(graph, specials) -> dict:
    """Tree counts of a Tait graph partitioned by containment of two
    special edges: keys 'total', 'only1', 'only2', 'both', 'neither'.

    Four unsigned counts with special edges deleted give the partition:
    the trees of G - e2 that avoid e1 are those of G - {e1, e2}, so
    only1 = T(G - e2) - T(G - {e1, e2}), and likewise for e2.
    """
    def count(*deleted):
        return laplacian_minor(graph.vertices,
                               ((e.u, e.v, 1) for e in graph.edges
                                if e not in deleted))

    e1, e2 = specials
    total, no1, no2, neither = count(), count(e1), count(e2), count(e1, e2)
    return {
        "total": total,
        "only1": no2 - neither,
        "only2": no1 - neither,
        "both": total - no1 - no2 + neither,
        "neither": neither,
    }


# ----------------------------------------------------------- sign obstructions

@dataclass(frozen=True)
class Prop224Report:
    applicable: bool
    reason: str = ""
    identities: Optional[tuple[bool, bool, bool, bool, bool]] = None

    @property
    def ok(self) -> bool:
        return bool(self.applicable and self.identities
                    and all(self.identities))


def prop224_check(d_half: Diagram, d_two: Diagram,
                  crossings: tuple[tuple[int, int], tuple[int, int]]
                  ) -> Prop224Report:
    """Replay the five determinant identities tying a diagram containing an
    elementary slope -1/2 clasp (d_half) to its -2 twist replacement
    (d_two), via partitioned spanning-tree counts at the two designated
    negative crossings of each diagram."""
    (a1, a2), (b1, b2) = crossings
    gh = d_half.black_graph()
    gt = d_two.black_graph()
    eh = {e.crossing: e for e in gh.edges}
    et = {e.crossing: e for e in gt.edges}
    for c, edges in ((a1, eh), (a2, eh), (b1, et), (b2, et)):
        if c not in edges:
            return Prop224Report(False, f"crossing {c} missing from diagram")
    negs_h = sorted(e.crossing for e in gh.edges if e.sign < 0)
    negs_t = sorted(e.crossing for e in gt.edges if e.sign < 0)
    if negs_h != sorted((a1, a2)) or negs_t != sorted((b1, b2)):
        return Prop224Report(
            False, "designated crossings are not the two negative signs")
    # the -2 pair must be parallel edges, the -1/2 pair must not be
    if frozenset((et[b1].u, et[b1].v)) != frozenset((et[b2].u, et[b2].v)):
        return Prop224Report(False, "replacement pair is not parallel")
    ch = _tree_counts(gh, (eh[a1], eh[a2]))
    ct = _tree_counts(gt, (et[b1], et[b2]))
    if ct["both"] != 0:
        return Prop224Report(False, "a tree contains both parallel edges")
    if ch["only1"] != ch["only2"] or ct["only1"] != ct["only2"]:
        return Prop224Report(False, "clasp symmetry violated")
    det_l = determinant(d_half)
    det_lp = determinant(d_two)
    l0, linfinf = ch["only1"], ch["both"]  # resolutions of the clasp in L
    linf_single = abs(ch["both"] - ch["only1"])
    lp_inf, lp00 = ct["only1"], ct["neither"]
    identities = (
        det_lp == abs(-2 * lp_inf + lp00),
        det_l == abs(-2 * l0 + linfinf),
        abs(lp00 - lp_inf) == linf_single,
        lp_inf == linfinf,
        l0 == lp00,
    )
    return Prop224Report(True, "", identities)
