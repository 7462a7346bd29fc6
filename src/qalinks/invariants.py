"""Exact link invariants: determinant, signature, genus certificates.

The determinant is computed two independent ways (Goeritz matrix and a
signed spanning-tree count on the Tait graph) and cross-checked against a
Seifert-matrix oracle; the signature comes from the Goeritz form with the
Gordon-Litherland correction.  All arithmetic is exact: every matrix is
symmetric, and every determinant and signature goes through one
fraction-free symmetric elimination, which gives a Goeritz matrix's
determinant and signature at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .diagram import Diagram, SignedTaitGraph


class SplitLink(ValueError):
    """Operation needs a non-split diagram."""


# ------------------------------------------------------- exact linear algebra

def _bareiss(a: list[list[int]], ends: Optional[list[int]] = None
             ) -> list[int]:
    """Fraction-free elimination (Bareiss 1968) of a symmetric integer
    matrix, in place; returns the pivots.  ``ends`` bounds each row's last
    nonzero column (any value from that column, -1 for a zero row, up to
    the last one), as the matrix's builder knows it; without it, every
    row is taken to end at the last column.

    A nonzero diagonal entry is a 1x1 pivot.  At a zero one, row k's first
    nonzero a[k][j] is swapped into column k+1 (rows and columns, a
    congruence), and rows k and k+1 are eliminated together as a 2x2
    pivot (Bunch and Kaufman 1977) with b = a[k][k+1] != 0 and
    c = a[k+1][k+1]: by Sylvester's identity, entry (i, j) of the
    trailing block becomes the 3x3 minor on rows k, k+1, i and columns
    k, k+1, j over P[k]^2, (b*x*v + (b*y - c*x)*u - b^2*w) / P[k]^2 for
    row i's (x, y, w) and the pivot rows' (u, v) in columns k, k+1, j.
    The step appends the leading principal minors 0 and -b^2 / P[k].  A
    zero row is dropped as a null direction.  Every division is exact:
    after k steps, entry (i, j) of the trailing block is the minor on
    rows 0..k-1, i and columns 0..k-1, j of the matrix as transformed, so
    the pivots are its leading principal minors.

    The work follows the nonzeros, without changing a pivot:

    - *Lazy scaling.*  A step only multiplies a row with zeros in the
      pivot columns by P[k+1]/P[k] (P[k+2]/P[k] for a 2x2 pivot), so such
      rows are left as they are.  Row i records the step ``at[i]`` = t at
      which its stored entries were last the minors above.  With
      P[t] = ``scale[t]`` the pivot after t steps (P[0] = 1, and never
      the 0 inside a 2x2 pivot), its entries after k steps are
      ``stored * P[k] // P[t]``, integer minors (multiply first: only the
      product is divisible).  Both updates are linear in row i's stored
      entries, so a stale row needs no rescaling: (p*u - x*v) // P[t], or
      the 2x2 numerator over P[t]*P[k], on its stored entries.  The pivot
      rows are rescaled first.
    - *Support bounds.*  ``end[i]`` bounds the last nonzero column of
      row i.  Past max(end[i], end[k]) (and end[k+1]) the rows are zero,
      and so is the update, so it touches only the columns up to that
      bound, which becomes the new end[i].  A column swap moves entries
      between columns, so it raises a bound to j wherever a moved entry
      lands nonzero in column j.  The zero-row drop is a swap with the
      last row and column; what it moves to the dropped column is the
      zero column k, so live rows stay zero there.
    - *Symmetric support.*  The trailing block is symmetric, and a stale
      row stores a nonzero multiple of its minors, so entry (i, k) is
      nonzero exactly when entry (k, i) is.  So a step updates only the
      rows i up to the pivot rows' bound with a nonzero in a pivot row at
      column i, and a swap's column loop runs only to the rows that hold
      nonzeros of the two columns.
    """
    n = len(a)
    scale = [1]  # scale[t]: the pivot after t steps
    at = [0] * n
    end = list(ends) if ends is not None else [n - 1] * n
    k = 0
    while k < n:
        ak = a[k]
        if not ak[k]:
            j = next((j for j in range(k + 1, end[k] + 1) if ak[j]), None)
            if j is None:
                _swap(a, at, end, k, k, n - 1)
                n -= 1
                continue
            if j != k + 1:
                _swap(a, at, end, k, k + 1, j)
            _rescale(a, at, end, scale, k, k)
            _rescale(a, at, end, scale, k + 1, k)
            ak1, q = a[k + 1], scale[k]
            b, c = ak[k + 1], ak1[k + 1]
            bb, ek = b * b, max(end[k], end[k + 1])
            for i in range(k + 2, ek + 1):
                if ak[i] or ak1[i]:
                    ai = a[i]
                    x, y, den, e = ai[k], ai[k + 1], scale[at[i]] * q, end[i]
                    bx, r = b * x, b * y - c * x
                    if e < ek:
                        end[i] = e = ek
                    e += 1
                    ai[k + 2:e] = [(bx * v + r * u - bb * w) // den
                                   for u, v, w in zip(ak[k + 2:e],
                                                      ak1[k + 2:e],
                                                      ai[k + 2:e])]
                    at[i] = k + 2
            scale += (0, -bb // q)
            k += 2
            continue
        if at[k] != k:
            _rescale(a, at, end, scale, k, k)
        ek, p = end[k], ak[k]
        for i in range(k + 1, ek + 1):
            if ak[i]:
                ai = a[i]
                x, den, e = ai[k], scale[at[i]], end[i]
                if e < ek:
                    end[i] = e = ek
                e += 1
                ai[k + 1:e] = [(p * u - x * v) // den
                               for u, v in zip(ai[k + 1:e], ak[k + 1:e])]
                at[i] = k + 1
        scale.append(p)
        k += 1
    return scale[1:]


def _rescale(a: list[list[int]], at: list[int], end: list[int],
             scale: list[int], i: int, k: int) -> None:
    """Bring row i of ``_bareiss`` up to date after k steps."""
    t = at[i]
    if t != k:
        row, num, den, e = a[i], scale[k], scale[t], end[i] + 1
        row[k:e] = [u * num // den for u in row[k:e]]
        at[i] = k


def _swap(a: list[list[int]], at: list[int], end: list[int],
          k: int, i: int, j: int) -> None:
    """Swap rows i <= j of ``_bareiss`` with their bookkeeping, and
    columns i and j of the trailing block from row k on."""
    a[i], a[j] = a[j], a[i]
    at[i], at[j] = at[j], at[i]
    end[i], end[j] = end[j], end[i]
    # by symmetry, rows past end[i] and end[j] are zero in both columns,
    # but for row j, which now holds the old diagonal entry a[i][i]
    for r in range(k, max(end[i], end[j], j if a[j][i] else k) + 1):
        row = a[r]
        row[i], row[j] = row[j], row[i]
        if row[j] and end[r] < j:
            end[r] = j


def _det_signature(a: list[list[int]], ends: Optional[list[int]] = None
                   ) -> tuple[int, int]:
    """``det_signature_exact``, consuming ``a``."""
    pivots = _bareiss(a, ends)
    sig, prev = 0, 1
    for p in pivots:
        sig += 1 if (p > 0) == (prev > 0) else -1
        prev = p
    return (prev if len(pivots) == len(a) else 0), sig


def det_signature_exact(rows: list[list[int]],
                        ends: Optional[list[int]] = None) -> tuple[int, int]:
    """(determinant, signature) of a symmetric integer matrix, exact, from
    one elimination.  ``ends`` optionally bounds each row's last nonzero
    column, as a matrix builder knows it (see ``_bareiss``).

    Each pivot is a leading principal minor d_k of the matrix as
    transformed, and the k-th diagonal entry of the congruent diagonal
    form has the sign of d_k * d_(k-1).  A 2x2 pivot gives d_(k+1) = 0
    between d_k and d_(k+2) = -b^2 / d_k, of opposite signs; counted this
    way the pair gives +1 and -1, the signature 0 of its block
    [[0, b], [b, c]] (Jacobi and Frobenius).  The only congruences are
    swaps of rows and columns, of determinant +-1, so the transformed
    matrix has the determinant of the input, and its last leading
    principal minor, the last pivot, is that determinant: 0 when a null
    direction was dropped, 1 at dimension 0.
    """
    return _det_signature([list(row) for row in rows], ends)


def det_exact(rows: list[list[int]], ends: Optional[list[int]] = None) -> int:
    """Determinant of a symmetric integer matrix (``det_signature_exact``)."""
    return det_signature_exact(rows, ends)[0]


def signature_exact(rows: list[list[int]],
                    ends: Optional[list[int]] = None) -> int:
    """Signature of a symmetric integer matrix (``det_signature_exact``)."""
    return det_signature_exact(rows, ends)[1]


def reduced_laplacian(vertices, edges) -> tuple[list[list[int]], list[int]]:
    """The weighted Laplacian of a graph with the first vertex's row and
    column deleted, a symmetric matrix, and a bound on each row's last
    nonzero column for the kernel: the largest of the row's own index and
    its neighbours' (weights may cancel below it).  ``edges`` yields
    (u, v, weight).  Loops are skipped: a loop's weight would be added to
    and subtracted from one diagonal entry."""
    idx = {v: i for i, v in enumerate(vertices, -1)}
    m = len(idx) - 1
    lap = [[0] * m for _ in range(m)]
    ends = list(range(m))
    for u, v, w in edges:
        if u != v:
            i, j = idx[u], idx[v]  # the first vertex (index -1) is deleted
            if i >= 0:
                lap[i][i] += w
            if j >= 0:
                lap[j][j] += w
            if i >= 0 and j >= 0:
                lap[i][j] -= w
                lap[j][i] -= w
                if ends[i] < j:
                    ends[i] = j
                if ends[j] < i:
                    ends[j] = i
    return lap, ends


# ----------------------------------------------------------------- Goeritz

def goeritz_matrix(d: Diagram) -> tuple[list[list[int]], list[int]]:
    """Quadratic form on white regions X1..Xn with the unbounded X0 deleted:
    the reduced signed Laplacian of the white Tait graph, whose first
    vertex is X0, with its row bounds (``reduced_laplacian``)."""
    w = d.white_graph()
    return reduced_laplacian(w.vertices, ((e.u, e.v, e.sign) for e in w.edges))


def det_goeritz(d: Diagram) -> int:
    """|det| of the Goeritz matrix; requires a connected diagram."""
    if not d.is_connected():
        raise SplitLink("determinant routines need a connected diagram")
    return abs(_det_signature(*goeritz_matrix(d))[0])


# ------------------------------------------------------------ spanning trees

def laplacian_minor(vertices, edges) -> int:
    """Sum over spanning trees of the product of edge weights: the
    determinant of the symmetric ``reduced_laplacian`` (matrix-tree
    theorem, any integer weights).  ``edges`` yields (u, v, weight).  A
    disconnected graph gives 0, a single vertex 1.
    """
    return _det_signature(*reduced_laplacian(vertices, edges))[0]


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

def det_and_signature(d: Diagram) -> tuple[int, int]:
    """(det L, sigma(L)) of the connected oriented diagram d, both read off
    one elimination of its Goeritz matrix: |det| of the matrix, and its
    signature minus the Gordon-Litherland correction."""
    if not d.is_connected():
        raise SplitLink("determinant and signature need a connected diagram")
    d.require_orientation()
    det, sig = _det_signature(*goeritz_matrix(d))
    # Gordon-Litherland correction: mu is the signed count of the type II
    # crossings, whose orientation smoothing merges the two black corners:
    # those whose Goeritz sign is their crossing sign (``Diagram.resolve``).
    # Both choices, type II merging black and subtracting mu with sign +1,
    # are fixed by the calibration suite (sigma(positive trefoil) = -2,
    # sigma(positive Hopf) = -1, sigma(fig8) = 0).
    mu = sum(e.sign for e in d.white_graph().edges
             if e.sign == d.crossing_sign(e.crossing))
    return abs(det), sig - mu


def signature(d: Diagram) -> int:
    """sig(Goeritz) minus the Gordon-Litherland correction."""
    return det_and_signature(d)[1]


# ------------------------------------------------------------------- genus

@dataclass(frozen=True)
class GenusCertificate:
    genus: int
    method: str


def find_positive_orientation(d: Diagram) -> Optional[Diagram]:
    """An orientation making every crossing positive, or None."""
    return _coherent_orientation(d, 1)


def find_negative_orientation(d: Diagram) -> Optional[Diagram]:
    """An orientation making every crossing negative, or None."""
    return _coherent_orientation(d, -1)


def report_orientation(d: Diagram) -> Diagram:
    """The orientation every report on ``d`` describes: every crossing
    positive if possible, else every crossing negative, else the first
    orientation.  Writhe, signature, genus, definiteness and the
    ``PositiveOrientation`` verdict are all read from it."""
    return (find_positive_orientation(d) or find_negative_orientation(d)
            or d.oriented())


def _coherent_orientation(d: Diagram, sign: int) -> Optional[Diagram]:
    """The first orientation in ``Diagram.orientations()`` order giving
    every crossing ``sign``, or None, found by one parity walk.

    Reversing component K flips exactly the crossings between K and the
    other components: a self-crossing of the wrong sign rules ``sign``
    out, and any other crossing fixes whether its two components are
    reversed alike.  Component 0 keeps its first direction and every other
    block of linked components is rooted at its highest component, so the
    reversals form the least bitmask: the first match.
    """
    base = d.oriented()
    if d.n == 0:
        return base
    pairs = d.strand_orbit_pairs()
    comp = [0] * (4 * d.n)
    for k, (a, b) in enumerate(pairs):
        for h in a | b:
            comp[h] = k
    # links[i]: (j, whether exactly one of i and j must be reversed)
    links: list[list[tuple[int, bool]]] = [[] for _ in pairs]
    for c in range(d.n):
        i, j = comp[4 * c], comp[4 * c + 1]
        wrong = base.crossing_sign(c) != sign
        if i == j:
            if wrong:
                return None
        else:
            links[i].append((j, wrong))
            links[j].append((i, wrong))
    flipped: list[Optional[bool]] = [None] * len(pairs)
    for root in (0, *range(len(pairs) - 1, 0, -1)):
        if flipped[root] is not None:
            continue
        flipped[root] = False
        stack = [root]
        while stack:
            i = stack.pop()
            for j, wrong in links[i]:
                want = flipped[i] != wrong
                if flipped[j] is None:
                    flipped[j] = want
                    stack.append(j)
                elif flipped[j] != want:
                    return None
    return d.oriented(h for (_, b), f in zip(pairs, flipped) if f for h in b)


def genus_certified(o: Diagram) -> Optional[GenusCertificate]:
    """Certified genus of the oriented link ``o``, or None.

    Reduced alternating and positive (or negative) diagrams realize the
    genus of their Seifert-algorithm surface; ``o`` is simplified first.
    """
    s = o.simplify()
    if s.is_split():
        return None
    if s.is_alternating():
        method = "alternating-reduced"
    elif abs(s.writhe()) == s.n:
        method = "positive-diagram"
    else:
        return None
    return GenusCertificate(s.seifert_genus_diagram(), method)


def is_definite(g: int, sigma: int, m: int) -> bool:
    """g(L) = (|sigma(L)| - (m - 1)) / 2 exactly."""
    return 2 * g == abs(sigma) - (m - 1)


# --------------------------------------------------------- identity checks

@dataclass(frozen=True)
class ConwayRelationReport:
    proviso_ok: bool
    det_identity: Optional[bool] = None
    sigma_relation: Optional[bool] = None
    e_relation: Optional[bool] = None


def _negative_count(d: Diagram) -> int:
    return sum(1 for c in range(d.n) if d.crossing_sign(c) == -1)


def mo_relations_check(d: Diagram, p: int, d0: Diagram, dinf: Diagram,
                       dets: tuple[int, int, int],
                       sig_l: int) -> ConwayRelationReport:
    """Signature/determinant relations for the Conway triple at crossing p
    of the oriented diagram d: (d0, dinf) is ``d.resolve_oriented(p)``,
    dets is (det L, det L0, det Linf) and sig_l is sigma(L)."""
    det_l, det0, detinf = dets
    if det0 == 0 or detinf == 0:
        return ConwayRelationReport(proviso_ok=False)
    det_id = det_l == det0 + detinf
    sigma_rel = sig_l == signature(d0) - d.crossing_sign(p)
    # sigma(o) - n_-(o) is the same for every orientation o of Linf:
    # reversing a component K changes both by 2 lk(K, Linf - K)
    e = _negative_count(dinf) - _negative_count(d0)
    e_rel = sig_l - signature(dinf) == -e
    return ConwayRelationReport(True, det_id, sigma_rel, e_rel)
