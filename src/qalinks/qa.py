"""Recursive quasi-alternating certification.

A certificate is a binary tree: at each node some crossing's two smoothings
both have nonzero determinant summing to the parent determinant, and both
smoothings are certified recursively; leaves are 0-crossing unknots.  The
determinant strictly decreases along every branch, so recursion terminates.
A node's crossing index refers to its simplified diagram, so the search memo
is keyed by that diagram and trusts its own entries without replaying them.
Certificates are independently replayable (validate_certificate), with one
spanning-tree determinant per node.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .cfrac import PreconditionViolated
from .diagram import Diagram
from .invariants import det_spanning_trees, determinant, laplacian_minor


# ------------------------------------------------------------- certificates

@dataclass(frozen=True)
class QACertificate:
    """Node of a certification tree; leaf (the unknot) iff key is None."""
    key: Optional[str] = None
    crossing: Optional[int] = None
    dets: Optional[tuple[int, int, int]] = None  # (det L, det L0, det Linf)
    children: Optional[tuple["QACertificate", "QACertificate"]] = None

    @property
    def is_leaf(self) -> bool:
        return self.key is None

    @staticmethod
    def unknot() -> "QACertificate":
        return QACertificate()

    def to_obj(self):
        if self.is_leaf:
            return "unknot"
        return {
            "key": self.key,
            "crossing": self.crossing,
            "det": self.dets[0],
            "det0": self.dets[1],
            "detInf": self.dets[2],
            "children": [c.to_obj() for c in self.children],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_obj(obj) -> "QACertificate":
        if obj == "unknot":
            return QACertificate.unknot()
        kids = tuple(QACertificate.from_obj(c) for c in obj["children"])
        if len(kids) != 2:
            raise PreconditionViolated("certificate nodes have two children")
        return QACertificate(obj["key"], obj["crossing"],
                             (obj["det"], obj["det0"], obj["detInf"]), kids)

    @staticmethod
    def from_json(text: str) -> "QACertificate":
        return QACertificate.from_obj(json.loads(text))

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(c.depth() for c in self.children)


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

    Negative (NotCertifiedHere) answers are diagram-relative, not link
    facts.  Memo entries are keyed by the simplified diagram the
    certificate's crossing indices refer to, so a stored certificate is
    reused as is and the search never replays one.  Negative entries
    remember the budget they were obtained under so that a smaller-budget
    failure never poisons a larger-budget rerun.
    """
    if budget < 1:
        raise PreconditionViolated("budget must be positive")
    if memo is None:
        memo = {}
    return _certify(d, _Budget(budget), memo)


def _certify(d: Diagram, budget: _Budget, memo: dict) -> CertifyOutcome:
    if not budget.spend():
        return CertifyOutcome("BudgetExceeded",
                              reason=f"node limit {budget.limit} reached")
    s = d.simplify()
    if s.n == 0:
        if s.free_loops == 1:
            return CertifyOutcome("Certified", QACertificate.unknot())
        return CertifyOutcome("DetZeroSplit", reason="split unlink")
    if s.is_split():
        return CertifyOutcome("DetZeroSplit", reason="split diagram")
    det = determinant(s)
    if det == 0:
        return CertifyOutcome("NotCertifiedHere", reason="determinant zero")
    if det == 1:
        return CertifyOutcome(
            "NotCertifiedHere",
            reason="determinant 1 but not visibly the unknot")
    key = (s.pairing, s.free_loops)
    hit = memo.get(key)
    if hit is not None:
        kind, payload, at_limit = hit
        if kind == "Certified":
            return CertifyOutcome("Certified", payload)
        if at_limit >= budget.limit:
            return CertifyOutcome(kind, reason=payload)
    candidates = []
    for c in range(s.n):
        d0 = s.resolve(c, "zero")
        dinf = s.resolve(c, "infinity")
        det0 = determinant(d0)
        detinf = determinant(dinf)
        if det0 >= 1 and detinf >= 1 and det == det0 + detinf:
            assert det0 < det and detinf < det  # strict decrease
            candidates.append((min(det0, detinf), c, d0, dinf, det0, detinf))
    candidates.sort(key=lambda t: (t[0], t[1]))
    for _, c, d0, dinf, det0, detinf in candidates:
        r0 = _certify(d0, budget, memo)
        if r0.kind == "BudgetExceeded":
            return r0
        if not r0.certified:
            continue
        rinf = _certify(dinf, budget, memo)
        if rinf.kind == "BudgetExceeded":
            return rinf
        if not rinf.certified:
            continue
        cert = QACertificate(s.canonical_key().decode(), c,
                             (det, det0, detinf),
                             (r0.certificate, rinf.certificate))
        memo[key] = ("Certified", cert, budget.limit)
        return CertifyOutcome("Certified", cert)
    reason = ("no crossing admits the determinant sum with both "
              "resolutions certified")
    memo[key] = ("NotCertifiedHere", reason, budget.limit)
    return CertifyOutcome("NotCertifiedHere", reason=reason)


def validate_certificate(cert: QACertificate, d: Diagram) -> bool:
    """Replay a certificate against a diagram with independent arithmetic
    (spanning-tree determinants, fresh resolutions).

    Each node proves its own determinant with one spanning-tree count; a
    parent checks that its stored resolution determinants are the ones its
    children prove (1 for an unknot leaf).
    """
    s = d.simplify()
    if cert.is_leaf:
        return s.n == 0 and s.free_loops == 1
    if s.n == 0 or s.is_split():
        return False
    if s.canonical_key().decode() != cert.key:
        return False
    if not (0 <= cert.crossing < s.n):
        return False
    det, det0, detinf = cert.dets
    if det != det0 + detinf or det0 < 1 or detinf < 1:
        return False
    if det_spanning_trees(s.black_graph()) != det:
        return False
    d0 = s.resolve(cert.crossing, "zero")
    dinf = s.resolve(cert.crossing, "infinity")
    for child_d, child_det, child in ((d0, det0, cert.children[0]),
                                      (dinf, detinf, cert.children[1])):
        if child_d.is_split():
            return False
        if (1 if child.is_leaf else child.dets[0]) != child_det:
            return False
        if not validate_certificate(child, child_d):
            return False
    return True


# ---------------------------------------------------------- mirror identity

def mirror_identity_check(d: Diagram, p: int) -> bool:
    """det(L+) = det L0 + det Linf holds iff the crossing-changed diagram
    has determinant |det L0 - det Linf|."""
    d0 = d.resolve(p, "zero")
    dinf = d.resolve(p, "infinity")
    det0 = determinant(d0)
    detinf = determinant(dinf)
    sum_holds = determinant(d) == det0 + detinf and det0 >= 1 and detinf >= 1
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


def twist_extend(d: Diagram, cert: QACertificate, p: int, n: int,
                 sign: Optional[int] = None,
                 budget: int = 100000):
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
    if sign is not None:
        g = d.black_graph()
        own = next(e.sign for e in g.edges if e.crossing == p)
        if sign != own:
            raise PreconditionViolated(
                "twist sign must match the crossing being extended")
    out = d
    for _ in range(n - 1):
        out = _extend_once(out, p)
    result = certify(out, budget)
    if not result.certified:
        raise AssertionError("extended diagram failed to re-certify")
    return out, result.certificate


# --------------------------------------------------- spanning-tree counting

def _tree_counts(graph, specials) -> dict:
    """Tree counts of a Tait graph partitioned by containment of up to two
    special edges: keys 'total', 'only1', 'only2', 'both', 'neither'."""
    vs = frozenset(graph.vertices)

    def count(exclude=(), contract=()):
        parent = {v: v for v in vs}

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for e in contract:
            a, b = find(e.u), find(e.v)
            if a == b:
                return 0
            parent[a] = b
        # unsigned count: every remaining edge has weight 1
        return laplacian_minor({find(v) for v in vs},
                               ((find(e.u), find(e.v), 1) for e in graph.edges
                                if e not in exclude and e not in contract))

    e1, e2 = specials
    return {
        "total": count(),
        "only1": count(exclude=(e2,), contract=(e1,)),
        "only2": count(exclude=(e1,), contract=(e2,)),
        "both": count(contract=(e1, e2)),
        "neither": count(exclude=(e1, e2)),
    }


# ----------------------------------------------------------- sign obstructions

@dataclass(frozen=True)
class Prop222Report:
    applicable: bool
    reason: str = ""
    det_partition_ok: Optional[bool] = None       # det = |-card A + card rest|
    sum_identity_fails: Optional[bool] = None     # det < det L0 + det Linf
    resolution_sum_matches: Optional[bool] = None  # det L0 + det Linf = trees

    @property
    def negative_crossing_not_qa(self) -> bool:
        return bool(self.applicable and self.det_partition_ok
                    and self.sum_identity_fails
                    and self.resolution_sum_matches)


def prop222_check(d: Diagram, p: int,
                  resolutions_alternating: bool = False) -> Prop222Report:
    """At the unique negative-sign crossing of an otherwise positive
    non-alternating diagram, the determinant sum identity must fail.

    ``resolutions_alternating`` is the caller's assertion that both
    resolutions at p are alternating up to isotopy; it is a hypothesis,
    not something this check searches for.
    """
    if d.is_alternating():
        return Prop222Report(False, "diagram is alternating")
    if not resolutions_alternating:
        return Prop222Report(
            False, "caller did not certify alternating resolutions")
    g = d.black_graph()
    negatives = [e for e in g.edges if e.sign < 0]
    if len(negatives) != 1:
        return Prop222Report(
            False, f"need exactly one negative sign, found {len(negatives)}")
    edge = negatives[0]
    if edge.crossing != p:
        return Prop222Report(False, "p is not the negative crossing")
    counts = _tree_counts(g, (edge, edge))
    card_a = counts["only1"] + counts["both"]  # trees containing the edge
    card_rest = counts["total"] - card_a
    det = determinant(d)
    det0 = determinant(d.resolve(p, "zero"))
    detinf = determinant(d.resolve(p, "infinity"))
    return Prop222Report(
        True, "",
        det_partition_ok=(det == abs(-card_a + card_rest)),
        sum_identity_fails=(det < card_a + card_rest
                            and card_a > 0 and card_rest > 0),
        resolution_sum_matches=(det0 + detinf == card_a + card_rest),
    )


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
