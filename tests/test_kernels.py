"""The Bareiss determinant and signature kernels against the Fraction
elimination they replaced and against the dense Bareiss elimination the
lazily scaled, support-limited kernel replaced, and the matrix-tree route
and the QA tree partition against a brute-force spanning-tree
enumerator."""

from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qalinks.diagram import SignedTaitGraph, TaitEdge
from qalinks.invariants import (
    SplitLink,
    _bareiss,
    det_exact,
    det_signature_exact,
    det_spanning_trees,
    laplacian_minor,
    signature_exact,
)
from qalinks.qa import _tree_counts


# ----------------------------------------------------------- references

def det_fraction(rows):
    """Determinant by Gaussian elimination over the rationals."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for i in range(n):
        pivot = next((r for r in range(i, n) if a[r][i] != 0), None)
        if pivot is None:
            return 0
        if pivot != i:
            a[i], a[pivot] = a[pivot], a[i]
            det = -det
        det *= a[i][i]
        for r in range(i + 1, n):
            f = a[r][i] / a[i][i]
            if f:
                for c in range(i, n):
                    a[r][c] -= f * a[i][c]
    return int(det)


def signature_fraction(rows):
    """Signature by congruence diagonalization over the rationals."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    sig = 0
    for i in range(n):
        if a[i][i] == 0:
            j = next((r for r in range(i + 1, n) if a[r][r] != 0), None)
            if j is not None:
                a[i], a[j] = a[j], a[i]
                for row in a:
                    row[i], row[j] = row[j], row[i]
            else:
                j = next((c for c in range(i + 1, n) if a[i][c] != 0), None)
                if j is None:
                    continue  # zero row: null direction
                s = 1 if 2 * a[i][j] + a[j][j] != 0 else -1
                for k in range(n):
                    a[i][k] += s * a[j][k]
                for k in range(n):
                    a[k][i] += s * a[k][j]
        d = a[i][i]
        sig += 1 if d > 0 else -1
        for r in range(i + 1, n):
            f = a[r][i] / d
            if f:
                for k in range(n):
                    a[r][k] -= f * a[i][k]
                for k in range(n):
                    a[k][r] -= f * a[k][i]
    return sig


def _swap_symmetric_dense(a, k, i, j, n):
    a[i], a[j] = a[j], a[i]
    for row in a[k:n]:
        row[i], row[j] = row[j], row[i]


def bareiss_dense(a):
    """The kernel before lazy scaling and support bounds: every row below
    the pivot is updated, or rescaled, over the whole trailing block at
    every step.  Same pivot choices (1x1 on a nonzero diagonal entry,
    else 2x2 with row k's first nonzero swapped into column k+1, else
    drop the zero row), so the same pivots."""
    n = len(a)
    pivots = []
    prev = 1
    k = 0
    while k < n:
        ak = a[k]
        p = ak[k]
        if p:
            tail = ak[k + 1:n]
            for i in range(k + 1, n):
                ai = a[i]
                x = ai[k]
                ai[k + 1:n] = [(p * u - x * v) // prev
                               for u, v in zip(ai[k + 1:n], tail)]
            pivots.append(p)
            k += 1
        elif (j := next((j for j in range(k + 1, n) if ak[j]),
                        None)) is not None:
            _swap_symmetric_dense(a, k, k + 1, j, n)
            ak1 = a[k + 1]
            b, c = ak[k + 1], ak1[k + 1]
            for i in range(k + 2, n):
                ai = a[i]
                x, y = ai[k], ai[k + 1]
                ai[k + 2:n] = [(b * x * v + (b * y - c * x) * u - b * b * w)
                               // (prev * prev)
                               for u, v, w in zip(ak[k + 2:n], ak1[k + 2:n],
                                                  ai[k + 2:n])]
            pivots += (0, -b * b // prev)
            k += 2
        else:
            _swap_symmetric_dense(a, k, k, n - 1, n)
            n -= 1
            continue
        prev = pivots[-1]
    return pivots


def spanning_trees(vertices, edges):
    """Every set of |V| - 1 edges forming a spanning tree, by trying them
    all; ``edges`` holds (u, v, weight, ...)."""
    for subset in combinations(edges, len(vertices) - 1):
        parent = {v: v for v in vertices}

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for u, v, *_ in subset:
            a, b = find(u), find(v)
            if a == b:  # a loop or a cycle
                break
            parent[a] = b
        else:
            yield subset


def tree_sum_brute(vertices, edges):
    """Sum over spanning trees of the product of edge weights."""
    return sum(prod(w for _, _, w, *_ in tree)
               for tree in spanning_trees(vertices, edges))


def tree_partition_brute(graph, e1, e2):
    """Spanning trees of a Tait graph counted by which special edges they
    hold, keyed as ``qa._tree_counts`` keys them."""
    counts = dict.fromkeys(("total", "only1", "only2", "both", "neither"), 0)
    for tree in spanning_trees(graph.vertices, graph.edges):
        has1, has2 = e1 in tree, e2 in tree
        counts["total"] += 1
        counts["both" if has1 and has2 else "only1" if has1
               else "only2" if has2 else "neither"] += 1
    return counts


# ----------------------------------------------------------- strategies

@st.composite
def symmetric_matrices(draw, max_dim=8, zero_diagonal=st.booleans()):
    """Symmetric integer matrices, some with a zero diagonal, zero rows,
    or a repeated row (singular)."""
    n = draw(st.integers(0, max_dim))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = draw(st.integers(-4, 4))
    if n == 0:
        return a
    if draw(zero_diagonal):
        for i in range(n):
            a[i][i] = 0
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        for k in range(n):
            a[i][k] = a[k][i] = 0
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        for k in range(n):
            a[i][k] = a[k][i] = a[j][k]
        a[i][i] = a[j][j]
    return a


ENTRIES = st.integers(-3, 3)


def _degenerate(draw, a):
    """Maybe zero a run of the diagonal (all of it, or one longer than
    the band, so that a swap reaches past the rows' supports), and zero
    up to two rows and their columns."""
    n = len(a)
    zeros = draw(st.sampled_from(("none", "all", "run"))) if n else "none"
    if zeros != "none":
        start = 0 if zeros == "all" else draw(st.integers(0, n - 1))
        length = n if zeros == "all" else draw(st.integers(1, n))
        for i in range(start, start + length):
            a[i % n][i % n] = 0
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)) if n else ():
        a[i] = [0] * n
        for row in a:
            row[i] = 0
    return a


@st.composite
def banded_matrices(draw, max_dim=16):
    """Entries only within a drawn bandwidth of the diagonal, any of them
    zero: every row skips the pivot columns left of its band, and a zero
    inside the band makes a row skip a step between two updates."""
    n = draw(st.integers(0, max_dim))
    width = draw(st.integers(0, 4))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(max(0, i - width), min(n, i + width + 1)):
            a[i][j] = a[j][i] if j < i else draw(ENTRIES)
    return _degenerate(draw, a)


@st.composite
def arrow_matrices(draw, max_dim=16):
    """A banded matrix with one or two dense hub rows and columns, as a
    pretzel's hub region puts in its Goeritz matrix, anywhere in the
    order."""
    a = draw(banded_matrices(max_dim))
    n = len(a)
    for h in draw(st.lists(st.integers(0, n - 1), min_size=1,
                           max_size=2)) if n else ():
        for c in range(n):
            a[h][c] = a[c][h] = draw(ENTRIES)
    return _degenerate(draw, a)


@st.composite
def far_partner_matrices(draw, max_dim=10):
    """Row k has a zero diagonal entry and its first nonzero in a far
    column j, and row k+1 a nonzero diagonal entry; rows k+1 and j end
    before column j.  The 2x2 step swaps j into place, and row j then
    holds the old a[k+1][k+1] past both rows' support bounds.  A block of
    1x1 pivots, which touch no other row, comes first."""
    k = draw(st.integers(0, 3))
    n = k + draw(st.integers(3, max_dim))
    j = draw(st.integers(k + 2, n - 1))
    nonzero = ENTRIES.filter(bool)
    a = [[0] * n for _ in range(n)]
    for i in range(k):
        a[i][i] = draw(nonzero)
    for i in range(k, n):
        for m in range(i, n):
            a[i][m] = a[m][i] = draw(ENTRIES)
    for m in range(k, n):
        a[k][m] = a[m][k] = 0
        if m >= j:
            a[k + 1][m] = a[m][k + 1] = a[j][m] = a[m][j] = 0
    a[k][j] = a[j][k] = draw(nonzero)
    a[k + 1][k + 1] = draw(nonzero)
    return a


@st.composite
def weighted_graphs(draw, weights=st.sampled_from((-1, 1))):
    """Graphs on up to 6 labelled vertices with up to 12 weighted edges;
    loops, parallel edges and disconnected graphs included."""
    vertices = sorted(draw(st.sets(st.integers(0, 20), min_size=1,
                                   max_size=6)))
    ends = st.sampled_from(vertices)
    edges = draw(st.lists(st.tuples(ends, ends, weights), max_size=12))
    return vertices, edges


# ------------------------------------------------------------------ tests

def eliminations(a):
    """The pivots from the kernel and from the dense reference."""
    return (_bareiss([list(row) for row in a]),
            bareiss_dense([list(row) for row in a]))


SYMMETRIC = st.one_of(symmetric_matrices(), banded_matrices(),
                      arrow_matrices(), banded_matrices(40),
                      far_partner_matrices())


class TestKernelAgainstDense:
    """The kernel takes exactly the dense kernel's pivots."""

    @given(SYMMETRIC)
    def test_symmetric(self, a):
        new, old = eliminations(a)
        assert new == old
        assert signature_exact(a) == signature_fraction(a)
        assert det_exact(a) == det_fraction(a)

    def test_stale_rows_in_a_2x2_pivot(self):
        # after pivot 2, a[1][1] is 0: rows 1 and 2 make a 2x2 pivot;
        # row 3 was last current at step 0, so its update reads its own
        # stored 3 and 1, not the step-1 entries 6 and 2 of the pivot rows
        a = [[2, 0, 2, 0], [0, 0, 1, 3], [2, 1, 0, 1], [0, 3, 1, 1]]
        new, old = eliminations(a)
        assert new == old == [2, 0, -2, 46]
        assert det_signature_exact(a) == (det_fraction(a),
                                          signature_fraction(a)) == (46, 0)

    def test_partner_swap_moves_the_pivot_row_too(self):
        # row 0's first nonzero is in column 2: swapping rows and columns
        # 1 and 2 must move it in row 0 as well, into column 1
        a = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
        new, old = eliminations(a)
        assert new == old == [0, -1, -1]
        assert det_signature_exact(a) == (det_fraction(a),
                                          signature_fraction(a)) == (-1, 1)

    def test_partner_swap_reaches_a_row_past_both_supports(self):
        # at step 2, rows and columns 3 and 4 are swapped: row 4 then
        # holds the old a[3][3] = 1 in column 3, below the support bounds
        # of both rows, and the swap must still move it to column 4
        a = [[0, 0, 0, 0, 3], [0, 0, -1, 0, 0], [0, -1, 0, 0, 0],
             [0, 0, 0, 1, 0], [3, 0, 0, 0, 0]]
        new, old = eliminations(a)
        assert new == old == [0, -9, 0, 9, 9]
        assert det_signature_exact(a) == (det_fraction(a),
                                          signature_fraction(a)) == (9, 1)

    def test_zero_row_dropped_inside_a_band(self):
        # after pivots 2 and 6, rows 2 and 3 are zero: both are dropped,
        # row 3 after being swapped into row 2's place
        a = [[2, 0, 0, 2], [0, 3, 0, 3], [0, 0, 0, 0], [2, 3, 0, 5]]
        new, old = eliminations(a)
        assert new == old and len(new) == 2
        assert signature_exact(a) == signature_fraction(a) == 2


class TestRowBounds:
    """Bounds a matrix builder hands the kernel in place of its scan give
    the scanned call's pivots."""

    @given(SYMMETRIC, st.data())
    def test_any_valid_bounds_give_the_same_pivots(self, a, data):
        n = len(a)
        last = [max((j for j, x in enumerate(row) if x), default=-1)
                for row in a]
        ends = [data.draw(st.integers(e, n - 1)) for e in last]
        given_ends = list(ends)
        bounded = _bareiss([list(row) for row in a], ends)
        assert ends == given_ends
        assert bounded == _bareiss([list(row) for row in a]) == \
            bareiss_dense([list(row) for row in a])
        assert det_signature_exact(a, ends) == det_signature_exact(a)
        assert (det_exact(a, ends), signature_exact(a, ends)) == \
            det_signature_exact(a)


class TestDeterminant:
    @given(symmetric_matrices())
    def test_symmetric_matches_fraction(self, a):
        assert det_exact(a) == det_fraction(a)

    def test_input_untouched(self):
        a = [[0, 2], [2, 1]]
        assert det_exact(a) == -4
        assert a == [[0, 2], [2, 1]]

    @given(SYMMETRIC)
    def test_symmetric_pass_matches_row_swaps(self, a):
        # the steps are congruences by matrices of determinant +-1, so the
        # last pivot is the determinant the row-swap Fraction elimination
        # gives, and 0 once a null row is dropped
        b = [list(row) for row in a]
        assert det_signature_exact(a) == (det_fraction(a),
                                          signature_fraction(a))
        assert a == b

    def test_symmetric_pass_dimension_zero(self):
        assert det_signature_exact([]) == (1, 0)


class TestSignature:
    @given(symmetric_matrices())
    def test_matches_fraction(self, a):
        assert signature_exact(a) == signature_fraction(a)

    @given(symmetric_matrices(zero_diagonal=st.just(True)))
    def test_zero_diagonal_matches_fraction(self, a):
        assert signature_exact(a) == signature_fraction(a)

    def test_zero_diagonal_takes_2x2_pivots(self):
        # no nonzero diagonal entry anywhere: hyperbolic planes, each one
        # 2x2 pivot
        a = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]]
        assert signature_exact(a) == 0
        assert det_signature_exact(a) == (4, 0)

    def test_null_directions_dropped(self):
        a = [[0, 0, 0], [0, 3, 1], [0, 1, 3]]
        assert signature_exact(a) == 2
        assert det_signature_exact(a) == (0, 2)
        assert signature_exact([[0, 0], [0, 0]]) == 0
        # a zero row ahead of a zero-diagonal block of signature -1
        a = [[0, 0, 0, 0], [0, 0, -1, -1], [0, -1, 0, 2], [0, -1, 2, 0]]
        assert signature_exact(a) == -1


class TestSpanningTrees:
    @given(weighted_graphs())
    def test_signed_matches_enumeration(self, graph):
        vertices, edges = graph
        b = SignedTaitGraph(tuple(vertices), tuple(
            TaitEdge(u, v, w, c) for c, (u, v, w) in enumerate(edges)))
        assert det_spanning_trees(b) == abs(tree_sum_brute(vertices, edges))

    @given(weighted_graphs(st.integers(-3, 3)))
    def test_weighted_minor_matches_enumeration(self, graph):
        vertices, edges = graph
        assert laplacian_minor(vertices, edges) == tree_sum_brute(vertices,
                                                                  edges)

    def test_disconnected_is_zero(self):
        b = SignedTaitGraph((0, 1, 2), (TaitEdge(0, 1, 1, 0),
                                        TaitEdge(2, 2, 1, 1)))
        assert det_spanning_trees(b) == 0

    def test_single_vertex(self):
        b = SignedTaitGraph((4,), (TaitEdge(4, 4, -1, 0),))
        assert det_spanning_trees(b) == 1

    @given(weighted_graphs(), st.data())
    def test_partition_matches_enumeration(self, graph, data):
        vertices, edges = graph
        assume(edges)
        g = SignedTaitGraph(tuple(vertices), tuple(
            TaitEdge(u, v, w, c) for c, (u, v, w) in enumerate(edges)))
        pick = st.sampled_from(g.edges)
        e1, e2 = data.draw(pick), data.draw(pick)
        assert _tree_counts(g, (e1, e2)) == tree_partition_brute(g, e1, e2)

    def test_partition_special_edge_shapes(self):
        # a triangle with a doubled side, a loop and a pendant edge; the
        # special pairs run over distinct, parallel, loop and repeated edges
        ends = [(0, 1), (0, 1), (1, 2), (2, 0), (2, 2), (2, 3)]
        g = SignedTaitGraph((0, 1, 2, 3), tuple(
            TaitEdge(u, v, 1, c) for c, (u, v) in enumerate(ends)))
        for e1 in g.edges:
            for e2 in g.edges:
                assert _tree_counts(g, (e1, e2)) == \
                    tree_partition_brute(g, e1, e2), (e1, e2)

    def test_empty_graph_is_split(self):
        with pytest.raises(SplitLink):
            det_spanning_trees(SignedTaitGraph((), ()))
