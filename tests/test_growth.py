"""Growth gates: a layer's work is counted in deterministic units on a
family at k and 2k, and the count may grow by at most 2^d * 1.2, where d
is the degree the README states for that layer."""

import functools
import heapq
import sys
from types import CodeType, SimpleNamespace

import pytest

from qalinks import diagram, invariants, montesinos, qa, seifert_oracle
from qalinks.cli import parse, to_diagram
from qalinks.qa import certify, validate_certificate
from qalinks.seifert_oracle import to_braid_form

from test_canonical_key import pretzel_3
from test_qa import cf_23, internal_nodes

SLACK = 1.2


def key_tokens(monkeypatch, diagrams) -> list[int]:
    """Per diagram, the tokens its canonical key computes: two per head,
    and every token each of its BFS emits."""
    tokens = []
    head, bfs = diagram._head, diagram._encoding_below

    def counted_head(*args):
        tokens[-1] += 2
        return head(*args)

    def counted_bfs(*args):
        run = bfs(*args)
        tokens[-1] += len(run.tokens)
        return run

    monkeypatch.setattr(diagram, "_head", counted_head)
    monkeypatch.setattr(diagram, "_encoding_below", counted_bfs)
    for d in diagrams:
        tokens.append(0)
        d.canonical_key()
    return tokens


def line_events(functions, call) -> int:
    """The line events ``sys.settrace`` reports, while ``call()`` runs, in
    frames of ``functions`` and of the code nested in them (their
    comprehensions and generator expressions)."""
    codes, stack = set(), [f.__code__ for f in functions]
    while stack:
        c = stack.pop()
        codes.add(c)
        stack.extend(x for x in c.co_consts if isinstance(x, CodeType))
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    before = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 local if frame.f_code in codes else None)
    try:
        call()
    finally:
        sys.settrace(before)
    return count


# The kernel and its helpers, and the Laplacian build that hands the
# kernel each row's bound.
KERNEL = (invariants.reduced_laplacian, invariants._bareiss,
          invariants._swap, invariants._rescale)


def kernel_events(rows) -> int:
    """The kernel's line events on ``rows``, given each row's last nonzero
    column as a matrix builder gives it."""
    ends = [max((j for j, x in enumerate(row) if x), default=-1)
            for row in rows]
    return line_events(KERNEL,
                       lambda: invariants.det_signature_exact(rows, ends))


# README: the key is linear on both families (d = 1).  P(3^k) ties on
# many starts; unless a tie prunes the starts in its class, its count
# grows quadratically.
@pytest.mark.parametrize("family, k", [(pretzel_3, 48), (cf_23, 48)])
def test_canonical_key_is_linear(monkeypatch, family, k):
    small, large = family(k), family(2 * k)
    assert large.n == 2 * small.n
    small_count, large_count = key_tokens(monkeypatch, (small, large))
    assert large_count / small_count <= 2 ** 1 * SLACK


def sweep_pushes(monkeypatch, diagrams) -> list[int]:
    """Per diagram, the heap pushes of its ``sweep_order``: every sweep
    from every start, up to where it stops."""
    pushes = []

    def counted_push(heap, item):
        pushes[-1] += 1
        heapq.heappush(heap, item)

    monkeypatch.setattr(diagram, "heapq", SimpleNamespace(
        heappush=counted_push, heappop=heapq.heappop))
    for d in diagrams:
        pushes.append(0)
        d.sweep_order()
    return pushes


# README: the sweep order is linear on both families (d = 1): a sweep
# stops once its width reaches the least so far, so most starts stop
# early.  Sweeping every start to its end makes it quadratic.
@pytest.mark.parametrize("family, k", [(cf_23, 48), (pretzel_3, 32)])
def test_sweep_order_is_linear(monkeypatch, family, k):
    small, large = family(k), family(2 * k)
    assert large.n == 2 * small.n
    small_count, large_count = sweep_pushes(monkeypatch, (small, large))
    assert large_count / small_count <= 2 ** 1 * SLACK


# README: the kernel is linear on the Goeritz band of a rational closure
# (d = 1), its matrix build included.  A step that scans every row below
# the pivot for a nonzero in its column makes it quadratic, and so does a
# scan of each row for its last nonzero.
def test_goeritz_kernel_is_linear():
    k = 50
    small, large = (
        line_events(KERNEL, lambda: invariants.det_signature_exact(
            *invariants.goeritz_matrix(d)))
        for d in (cf_23(j) for j in (k, 2 * k)))
    assert large / small <= 2 ** 1 * SLACK


def zero_diagonal_band(n):
    """The tridiagonal matrix with zero diagonal and off-diagonal entries
    alternating 1 and -1."""
    a = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        a[i][i + 1] = a[i + 1][i] = (-1) ** i
    return a


# README: the kernel is linear on a band with a zero diagonal (d = 1).
# Answering each zero pivot with a swap to the next nonzero diagonal
# entry, or with a row add, made it grow 8,106 -> 21,256 (2.62x) at
# dim 100 -> 200.
def test_kernel_is_linear_on_a_zero_diagonal_band():
    small, large = (kernel_events(zero_diagonal_band(n)) for n in (100, 200))
    assert large / small <= 2 ** 1 * SLACK


# The oracle's full braid Seifert form of CF[2,-3]x4 (dim 76) has a zero
# diagonal entry per hyperbolic pair the Vogel pushes add; 2x2 pivots take
# 16,408 line events there, swaps to far diagonal entries and row adds
# 31,731.
def test_kernel_work_on_an_oracle_form():
    assert kernel_events(seifert_oracle.seifert_form(cf_23(4).oriented())) \
        <= 20_000


# README: the rows the oracle's split hands the kernel grow linearly on a
# rational closure (d = 1), 22 -> 46 on CF[2,-3]x8 -> x16, while the braid
# form grows quadratically (296 -> 1,168 generators).  Splitting only the
# planes whose generator has a single entry kept 268 -> 1,092.
def test_oracle_split_keeps_linearly_many_rows():
    small, large = (
        len(seifert_oracle.split_form_from_word(
            seifert_oracle.braid_word(cf_23(k).oriented())[0])[1])
        for k in (8, 16))
    assert large / small <= 2 ** 1 * SLACK


# README: reading the braid word off the braid form is quadratic on a
# rational closure (d = 2), as the braided crossings are: 320 -> 1,216 on
# CF[2,-3]x8 -> x16, and 10,997 -> 40,984 line events.  Merging the
# circles one by one into the word, which rebuilt the word and a set of
# its letters per circle, read 19,324 -> 116,115 (6.0x): cubic.
def test_braid_word_is_quadratic():
    small, large = (
        line_events([seifert_oracle.braid_word],
                    lambda: seifert_oracle.braid_word(d))
        for d in (cf_23(k).oriented() for k in (8, 16)))
    assert large / small <= 2 ** 2 * SLACK


# README: checking an oriented diagram is linear on a rational closure
# (d = 1): the line events of ``Diagram.validate``, with the faces and
# pieces walks it makes on a fresh copy, read 2,552 -> 5,072 on
# CF[2,-3]x8 -> x16.  The orientation is checked by two local rules per
# half-edge, with no walk of the strands.
def test_validate_is_linear():
    walks = (diagram.Diagram.validate, diagram.Diagram.faces.__wrapped__,
             diagram.Diagram.pieces.__wrapped__)
    small, large = (
        line_events(walks, diagram.Diagram(o.pairing, o.free_loops,
                                           o.orientation).validate)
        for o in (cf_23(k).oriented() for k in (8, 16)))
    assert large / small <= 2 ** 1 * SLACK


# README: compiling a Montesinos link of k tangles is linear in k (d = 1):
# the line events of ``compile_montesinos``, its assembler and the
# ``Diagram.validate`` it ends with, faces and pieces walks included, read
# 4,628 -> 9,172 on P(3^16) -> P(3^32).  The assembler writes each arc
# into the pairing as it joins, so no step revisits the tangles built.
def test_compile_montesinos_is_linear():
    asm = montesinos._Assembler
    walks = (montesinos.compile_montesinos, montesinos._rational_tangle,
             montesinos._rational_stem, montesinos._zero_tangle,
             montesinos._numerator_closure, asm.wire, asm.join, asm.twists,
             asm.diagram, diagram.Diagram.validate,
             diagram.Diagram.faces.__wrapped__,
             diagram.Diagram.pieces.__wrapped__)
    small, large = (
        line_events(walks, lambda: montesinos.compile_montesinos(
            0, [[3]] * k))
        for k in (16, 32))
    assert large / small <= 2 ** 1 * SLACK


# README: the report orientation is found by one linear parity walk
# (d = 1): the line events of ``report_orientation`` on a fresh copy, with
# the strands walk, the sign searches and ``oriented``, read 1,848 -> 3,688
# on P(2^16) -> P(2^32), with 16 -> 32 components and every crossing of
# one sign.  Trying all 2^(m-1) orientations doubled with each component.
def test_report_orientation_is_linear():
    walks = (invariants.report_orientation,
             invariants.find_positive_orientation,
             invariants.find_negative_orientation,
             invariants._coherent_orientation, diagram.Diagram.oriented,
             diagram.Diagram.strands.__wrapped__)
    small, large = (
        line_events(walks, lambda: invariants.report_orientation(
            diagram.Diagram(d.pairing, d.free_loops)))
        for d in (to_diagram(parse("P(" + ", ".join(["2"] * k) + ")"))
                  for k in (16, 32)))
    assert large / small <= 2 ** 1 * SLACK


# README: a certificate has linearly many distinct nodes on both families
# (d = 1).  A search that branches on crossings all over the diagram
# reaches arbitrary minors of it, and its certificates grow about 4x per
# five crossings on CF[2,-3]xk.
@pytest.mark.parametrize("family, k", [(cf_23, 6), (pretzel_3, 8)])
def test_certificate_nodes_are_linear(family, k):
    small, large = (len(internal_nodes(certify(family(j)).certificate))
                    for j in (k, 2 * k))
    assert large / small <= 2 ** 1 * SLACK


# README: the search takes linearly many Kirchhoff minors on both families
# (d = 1).  A node that takes all 1 + k deletion minors of its white graph,
# though its loop stops at the first crossing that certifies, makes them
# grow about 3.7x (CF[2,-3]xk) and 4.8x (P(3^k)) per doubling.
@pytest.mark.parametrize("family, k", [(cf_23, 6), (pretzel_3, 8)])
def test_search_minors_are_linear(monkeypatch, family, k):
    calls = []
    minor = qa.laplacian_minor
    monkeypatch.setattr(qa, "laplacian_minor",
                        lambda *args: calls.append(args) or minor(*args))
    counts = []
    for j in (k, 2 * k):
        calls.clear()
        assert certify(family(j)).certified
        counts.append(len(calls))
    small, large = counts
    assert large / small <= 2 ** 1 * SLACK


def pairing_half_edges(monkeypatch, call) -> int:
    """The half-edges of every pairing a diagram is built on while
    ``call()`` runs, each pairing once: an oriented copy shares its
    source's pairing and adds none."""
    built = {}
    init = diagram.Diagram.__init__

    def counted(self, pairing, *args, **kwargs):
        built.setdefault(id(pairing), pairing)
        init(self, pairing, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(diagram.Diagram, "__init__", counted)
        call()
    return sum(map(len, built.values()))


# README: the pairings that search and replay build on P(t,3,3) grow
# quadratically in t (d = 2): a child is one copy of its parent's pairing,
# smoothed and cleared of kinks and bigons in place (5,360 -> 16,960
# half-edges per search at t = 40 -> 80, where a resolution, its kink
# removal and each R2 pair made a copy of their own: 9,548 -> 31,628).
# One copy per kink, when a twist region of t crossings comes apart one
# crossing at a time, made them cubic: 66,964 -> 434,324.
@pytest.mark.parametrize("replay", [False, True])
def test_pairings_built_are_quadratic(monkeypatch, replay):
    counts = []
    for t in (40, 80):
        d = to_diagram(parse(f"P({t},3,3)"))
        if replay:
            cert = certify(d).certificate
            call = lambda: validate_certificate(cert, d)
        else:
            call = lambda: certify(d)
        counts.append(pairing_half_edges(monkeypatch, call))
    small, large = counts
    assert large / small <= 2 ** 2 * SLACK


def faces_walks(monkeypatch, call) -> int:
    """The face walks ``Diagram.faces`` runs while ``call()`` runs: the
    raw walks, not the cached reads."""
    raw = diagram.Diagram.faces.__wrapped__
    walks = 0

    @functools.wraps(raw)
    def counted(self):
        nonlocal walks
        walks += 1
        return raw(self)

    with monkeypatch.context() as m:
        m.setattr(diagram.Diagram, "faces", diagram._derived(counted))
        call()
    return walks


# README: the search walks faces twice, whatever k: once for the input's
# simplify and once for the root's white graph.  Every other node inherits
# its Tait graph from its parent.  Rebuilding it on each memo miss took
# 20 / 40 / 80 walks for 19 / 39 / 79 memo entries at k = 4 / 8 / 16, and
# finding each child's bigons on its faces as well 39 / 79 / 159.
@pytest.mark.parametrize("k", [4, 8, 16])
def test_search_walks_faces_only_on_memo_misses(monkeypatch, k):
    memo = {}
    walks = faces_walks(monkeypatch, lambda: certify(cf_23(k), memo=memo))
    assert len(memo) > k and walks <= 2


# README: the Vogel braider is quadratic on a rational closure (d = 2),
# both in pushes (140 -> 568 at k = 8 -> 16) and in the half-edges of the
# faces it makes (3,074 -> 12,170).  A braider that rescanned every face
# per push would make the scans cubic.  On P(3^k) the scans grow 5.3x per
# doubling, so that family is not gated.
def test_vogel_braiding_is_quadratic(monkeypatch):
    braiding = seifert_oracle._Braiding
    push, add_face = braiding.push, braiding._add_face
    work = SimpleNamespace(pushes=0, scanned=0)

    def counted_push(self, *move):
        work.pushes += 1
        push(self, *move)

    def counted_add_face(self, orbit):
        work.scanned += len(orbit)
        add_face(self, orbit)

    monkeypatch.setattr(braiding, "push", counted_push)
    monkeypatch.setattr(braiding, "_add_face", counted_add_face)
    counts = []
    for k in (8, 16):
        work.pushes = work.scanned = 0
        to_braid_form(cf_23(k).oriented())
        counts.append((work.pushes, work.scanned))
    (small_pushes, small_scanned), (large_pushes, large_scanned) = counts
    assert large_pushes / small_pushes <= 2 ** 2 * SLACK
    assert large_scanned / small_scanned <= 2 ** 2 * SLACK
