"""Exact link invariants: determinant, signature, genus certificates.

The determinant is computed two independent ways (Goeritz matrix and a
signed spanning-tree count on the Tait graph) and cross-checked against a
Seifert-matrix oracle; the signature comes from the Goeritz form with the
Gordon-Litherland correction.  All arithmetic is exact: every determinant
and signature goes through one fraction-free integer elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cfrac import Rational
from .diagram import Diagram, SignedTaitGraph


class SplitLink(ValueError):
    """Operation needs a non-split diagram."""


# ------------------------------------------------------- exact linear algebra

def _swap_symmetric(a: list[list[int]], k: int, j: int, n: int) -> None:
    """Swap rows and columns k and j of the trailing block a[k:n][k:n]."""
    a[k], a[j] = a[j], a[k]
    for r in range(k, n):
        row = a[r]
        row[k], row[j] = row[j], row[k]


def _bareiss(a: list[list[int]], symmetric: bool = False
             ) -> tuple[list[int], int]:
    """Fraction-free Gaussian elimination (Bareiss 1968), in place.

    Every division is exact: after k steps, entry (i, j) of the trailing
    block is the minor on rows 0..k-1, i and columns 0..k-1, j of the
    matrix as permuted (and, in symmetric mode, transformed by the
    congruences below), so the pivots are its leading principal minors.
    Returns (pivots, sign of the row permutation).

    By default rows are swapped to find a pivot, and elimination stops at
    a column with no nonzero entry left, returning fewer pivots than rows.
    With ``symmetric`` every step is a congruence on the trailing block: a
    zero pivot is replaced by a nonzero diagonal entry (swapping rows and
    columns), else row and column j are added to row and column k, making
    the pivot 2*a[k][j]; a zero row is dropped as a null direction.
    """
    n = len(a)
    pivots: list[int] = []
    sign = prev = 1
    k = 0
    while k < n:
        if a[k][k] == 0:
            if not symmetric:
                j = next((j for j in range(k + 1, n) if a[j][k]), None)
                if j is None:
                    break
                a[k], a[j] = a[j], a[k]
                sign = -sign
            elif (j := next((j for j in range(k + 1, n) if a[j][j]),
                            None)) is not None:
                _swap_symmetric(a, k, j, n)
            elif (j := next((j for j in range(k + 1, n) if a[k][j]),
                            None)) is not None:
                ak, aj = a[k], a[j]
                for c in range(k, n):
                    ak[c] += aj[c]
                for r in range(k, n):
                    a[r][k] += a[r][j]
            else:
                _swap_symmetric(a, k, n - 1, n)
                n -= 1
                continue
        ak = a[k]
        p = ak[k]
        tail = ak[k + 1:n]
        for i in range(k + 1, n):
            ai = a[i]
            x = ai[k]
            if x:
                ai[k + 1:n] = [(p * u - x * v) // prev
                               for u, v in zip(ai[k + 1:n], tail)]
            elif p != prev:
                ai[k + 1:n] = [p * u // prev for u in ai[k + 1:n]]
        pivots.append(p)
        prev = p
        k += 1
    return pivots, sign


def _det(a: list[list[int]]) -> int:
    """Determinant by Bareiss elimination; consumes ``a``."""
    pivots, sign = _bareiss(a)
    if len(pivots) < len(a):
        return 0
    return sign * pivots[-1] if pivots else 1


def det_exact(rows: list[list[int]]) -> int:
    """Determinant of an integer matrix, exact."""
    return _det([list(row) for row in rows])


def signature_exact(rows: list[list[int]]) -> int:
    """Signature of a symmetric integer matrix: each pivot of the symmetric
    elimination is a leading principal minor d_k, and the k-th diagonal
    entry of the congruent diagonal form has the sign of d_k * d_(k-1)."""
    pivots, _ = _bareiss([list(row) for row in rows], symmetric=True)
    sig, prev = 0, 1
    for p in pivots:
        sig += 1 if (p > 0) == (prev > 0) else -1
        prev = p
    return sig


# ----------------------------------------------------------------- Goeritz

def goeritz_matrix(d: Diagram) -> list[list[int]]:
    """Quadratic form on white regions X1..Xn with the unbounded X0 deleted:
    the signed Laplacian of the white Tait graph, whose first vertex is X0."""
    w = d.white_graph()
    pos = {f: i for i, f in enumerate(w.vertices)}
    m = len(pos)
    g = [[0] * m for _ in range(m)]
    for u, v, sign, _ in w.edges:
        if u != v:
            i, j = pos[u], pos[v]
            g[i][j] -= sign
            g[j][i] -= sign
            g[i][i] += sign
            g[j][j] += sign
    return [row[1:] for row in g[1:]]


def det_goeritz(d: Diagram) -> int:
    """|det| of the Goeritz matrix; requires a connected diagram."""
    if not d.is_connected():
        raise SplitLink("determinant routines need a connected diagram")
    return abs(det_exact(goeritz_matrix(d)))


# ------------------------------------------------------------ spanning trees

def laplacian_minor(vertices, edges) -> int:
    """Sum over spanning trees of the product of edge weights: the
    determinant of the weighted Laplacian with the first vertex's row and
    column deleted (matrix-tree theorem, any integer weights).

    ``edges`` yields (u, v, weight).  A loop adds and subtracts its weight
    on one diagonal entry, so loops drop out.  A disconnected graph gives
    0, a single vertex 1.
    """
    idx = {v: i for i, v in enumerate(vertices)}
    m = len(idx) - 1
    lap = [[0] * m for _ in range(m)]
    for u, v, w in edges:
        i, j = idx[u] - 1, idx[v] - 1  # vertex 0 (index -1) is deleted
        if i >= 0:
            lap[i][i] += w
        if j >= 0:
            lap[j][j] += w
        if i >= 0 and j >= 0:
            lap[i][j] -= w
            lap[j][i] -= w
    return _det(lap)


def det_spanning_trees(b: SignedTaitGraph) -> int:
    """|sum over spanning trees of the product of edge signs| (the signed
    matrix-tree theorem on the Tait graph)."""
    if not b.vertices:
        raise SplitLink("empty Tait graph")
    return abs(laplacian_minor(b.vertices,
                               ((e.u, e.v, e.sign) for e in b.edges)))


def determinant(d: Diagram) -> int:
    """det(L); 0 for split diagrams."""
    return 0 if d.is_split() else det_goeritz(d)


# ---------------------------------------------------------------- signature

# Gordon-Litherland correction: a crossing is type II when its orientation
# smoothing merges the two white corners; mu is the signed count of type II
# crossings.  Both choices below are fixed by the calibration suite
# (sigma(positive trefoil) = -2, sigma(positive Hopf) = -1, sigma(fig8) = 0).
_TYPE_II_MERGES_WHITE = True
_MU_SIGN = 1


def signature(d: Diagram) -> int:
    """sig(Goeritz) minus the Gordon-Litherland correction."""
    if not d.is_connected():
        raise SplitLink("signature needs a connected diagram")
    d.require_orientation()
    if d.n == 0:
        return 0
    sig = signature_exact(goeritz_matrix(d))
    mu = sum(d.crossing_sign(c) for c in range(d.n)
             if d.smoothing_merges_white(c) == _TYPE_II_MERGES_WHITE)
    return sig - _MU_SIGN * mu


# ------------------------------------------------------------------- genus

@dataclass(frozen=True)
class GenusCertificate:
    genus: int
    method: str


def find_positive_orientation(d: Diagram) -> Optional[Diagram]:
    """An orientation making every crossing positive, or None."""
    if d.n == 0:
        return d.oriented()
    for o in d.orientations():
        if o.is_positive():
            return o
    return None


def find_negative_orientation(d: Diagram) -> Optional[Diagram]:
    if d.n == 0:
        return d.oriented()
    for o in d.orientations():
        if o.is_negative():
            return o
    return None


def genus_certified(d: Diagram) -> Optional[GenusCertificate]:
    """Certified link genus when a minimality theorem applies, else None.

    Reduced alternating and positive (or negative) diagrams realize the
    genus of their Seifert-algorithm surface.
    """
    s = d.simplify()
    if s.is_split():
        return None
    if s.is_alternating():
        g = s.oriented().seifert_genus_diagram()
        return GenusCertificate(g.num, "alternating-reduced")
    o = find_positive_orientation(s) or find_negative_orientation(s)
    if o is not None:
        g = o.seifert_genus_diagram()
        return GenusCertificate(g.num, "positive-diagram")
    return None


def is_definite(g: int, sigma: int, m: int) -> bool:
    """g(L) = (|sigma(L)| - (m - 1)) / 2 exactly."""
    return 2 * g == abs(sigma) - (m - 1)


def lps_check(d: Diagram, g: int) -> str:
    """Width bound w(D) <= s(D) + 2 g(L) + m - 2 for homogeneous diagrams.

    Returns "equality" (iff the diagram is positive) or "strict"; raises
    if the bound fails.
    """
    s, w = d.seifert_state()
    bound = s + 2 * g + d.components - 2
    if abs(w) > bound:
        raise AssertionError(f"width bound violated: |{w}| > {bound}")
    return "equality" if w == bound else "strict"


def homogeneous_genus_lower_bound(d: Diagram) -> int:
    """g(D) - c^-(D), a lower bound for g(L) on homogeneous diagrams."""
    g = d.seifert_genus_diagram()
    c_neg = sum(1 for c in range(d.n) if d.crossing_sign(c) == -1)
    return g.num - c_neg


# --------------------------------------------------------- identity checks

@dataclass(frozen=True)
class ConwayRelationReport:
    proviso_ok: bool
    det_identity: Optional[bool] = None
    sigma_relation: Optional[bool] = None
    e_relation: Optional[bool] = None

    @property
    def ok(self) -> bool:
        return bool(self.proviso_ok and self.det_identity
                    and self.sigma_relation and self.e_relation)


def _negative_count(d: Diagram) -> int:
    return sum(1 for c in range(d.n) if d.crossing_sign(c) == -1)


def mo_relations_check(d: Diagram, p: int) -> ConwayRelationReport:
    """Signature/determinant relations for the Conway triple at crossing p."""
    d0, dinf = d.resolve_oriented(p)
    det_l = determinant(d)
    det0 = determinant(d0)
    detinf = determinant(dinf)
    if det0 == 0 or detinf == 0:
        return ConwayRelationReport(proviso_ok=False)
    det_id = det_l == det0 + detinf
    sgn = d.crossing_sign(p)
    if sgn == 1:
        sigma_rel = signature(d) == signature(d0) - 1
    else:
        sigma_rel = signature(d) == signature(d0) + 1
    e_rel = False
    for o in dinf.orientations():
        e = _negative_count(o) - _negative_count(d0)
        if signature(d) - signature(o) == -e:
            e_rel = True
            break
    return ConwayRelationReport(True, det_id, sigma_rel, e_rel)


def st_trichotomy_check(gp: int, gm: int, g0: int, m: int, m0: int) -> int:
    """Which of the three genus patterns holds for an L+/L-/L0 triple."""
    a = 2 * gp + m - 1
    b = 2 * gm + m - 1
    c = 2 * g0 + m0  # = 1 + 2 g0 + m0 - 1
    matches = []
    if a == b and a >= c:
        matches.append(1)
    if a == c and c > b:
        matches.append(2)
    if b == c and c > a:
        matches.append(3)
    if len(matches) != 1:
        raise AssertionError(
            f"trichotomy violated for {(gp, gm, g0, m, m0)}: {matches}")
    return matches[0]
