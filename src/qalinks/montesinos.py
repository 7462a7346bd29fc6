"""Rational tangles, two-bridge links and Montesinos links.

Tangles are assembled from elementary twists: a continued fraction
[c1, c2, ..., cn] = 1/(c1 - 1/(c2 - ...)) compiles to the rational tangle
of that slope, a Montesinos link M(e; t1, ..., tr) is the numerator closure
of r rational tangles and e extra half-twists placed side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .cfrac import (
    BothOddError,
    ContinuedFraction,
    PreconditionViolated,
    Rational,
    ZERO,
    cf_eval,
    cf_even,
    montesinos_normalize,
)
from .diagram import Diagram

NW, NE, SE, SW = "NW", "NE", "SE", "SW"

# Corner-to-slot maps for a twist crossing between two horizontal strands.
# Slots run counterclockwise with the under strand at slots 0 and 2; the
# two maps differ by a rotation, i.e. by a crossing change.
_POS_TWIST = {NE: 0, NW: 1, SW: 2, SE: 3}
_NEG_TWIST = {NE: 1, NW: 2, SW: 3, SE: 0}


class _Assembler:
    """Accumulates crossings and strand connections, then emits a Diagram.

    Tokens are either crossing slots ('x', i, s) or wire ends ('w', k).
    Crossing slots end up with exactly one connection, wire ends with two
    (their own wire plus one weld); chasing through wires yields the arc
    pairing, and wire cycles that touch no crossing become free loops.
    """

    def __init__(self):
        self.n = 0
        self.conn: list[tuple[tuple, tuple]] = []
        self._serial = 0

    def crossing(self) -> int:
        self.n += 1
        return self.n - 1

    def wire(self) -> tuple[tuple, tuple]:
        a = ("w", self._serial)
        b = ("w", self._serial + 1)
        self._serial += 2
        self.conn.append((a, b))
        return a, b

    def join(self, a: tuple, b: tuple) -> None:
        self.conn.append((a, b))

    def diagram(self) -> Diagram:
        adj: dict[tuple, list[tuple]] = {}
        for a, b in self.conn:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        for tok, nbrs in adj.items():
            want = 1 if tok[0] == "x" else 2
            if len(nbrs) != want:
                raise PreconditionViolated(f"dangling tangle boundary at {tok}")
        pairing = [0] * (4 * self.n)
        seen_wires: set[tuple] = set()
        for i in range(self.n):
            for s in range(4):
                tok = ("x", i, s)
                prev, cur = tok, adj[tok][0]
                while cur[0] == "w":
                    seen_wires.add(cur)
                    a, b = adj[cur]
                    prev, cur = cur, (b if a == prev else a)
                pairing[4 * i + s] = 4 * cur[1] + cur[2]
        loops = 0
        left = {t for t in adj if t[0] == "w"} - seen_wires
        while left:
            start = next(iter(left))
            prev, cur = start, adj[start][0]
            cycle = {start}
            while cur != start:
                cycle.add(cur)
                a, b = adj[cur]
                prev, cur = cur, (b if a == prev else a)
            left -= cycle
            loops += 1
        d = Diagram(tuple(pairing), free_loops=loops)
        d.validate()
        return d


def _zero_tangle(asm: _Assembler) -> dict[str, tuple]:
    top = asm.wire()
    bottom = asm.wire()
    return {NW: top[0], NE: top[1], SW: bottom[0], SE: bottom[1]}


def _add_twist(asm: _Assembler, t: dict, sign: int) -> dict:
    """Append one horizontal half-twist on the right (slope t -> t + sign)."""
    c = asm.crossing()
    m = _POS_TWIST if sign > 0 else _NEG_TWIST
    asm.join(t[NE], ("x", c, m[NW]))
    asm.join(t[SE], ("x", c, m[SW]))
    return {NW: t[NW], SW: t[SW], NE: ("x", c, m[NE]), SE: ("x", c, m[SE])}


def _rotate(t: dict) -> dict:
    """Quarter turn counterclockwise (slope t -> -1/t)."""
    return {NW: t[NE], SW: t[NW], SE: t[SW], NE: t[SE]}


def _integer_tangle(asm: _Assembler, e: int) -> dict:
    t = _zero_tangle(asm)
    for _ in range(abs(e)):
        t = _add_twist(asm, t, 1 if e > 0 else -1)
    return t


def _rational_stem(asm: _Assembler, entries: Sequence[int]) -> dict:
    """Tangle of slope -(c1 - 1/(c2 - ...)), one rotation short of T(q).

    Its slope has numerator alpha (the denominator of q), so its numerator
    closure is the two-bridge link of determinant alpha.
    """
    if not entries:
        return _zero_tangle(asm)
    t = _rational_tangle(asm, entries[1:])
    c1 = entries[0]
    for _ in range(abs(c1)):
        t = _add_twist(asm, t, -1 if c1 > 0 else 1)
    return t


def _rational_tangle(asm: _Assembler, entries: Sequence[int]) -> dict:
    """Tangle of slope 1/(c1 - 1/(c2 - ...)) built inside-out."""
    if not entries:
        return _zero_tangle(asm)
    return _rotate(_rational_stem(asm, entries))


def _numerator_closure(asm: _Assembler, t: dict) -> Diagram:
    asm.join(t[NW], t[NE])
    asm.join(t[SW], t[SE])
    return asm.diagram()


def compile_rational(entries: Sequence[int]) -> Diagram:
    """Two-bridge diagram for slope beta/alpha = [c1, ..., cn]; det = alpha."""
    asm = _Assembler()
    return _numerator_closure(asm, _rational_stem(asm, entries))


def compile_montesinos(e: int, tangles: Sequence[Sequence[int]]) -> Diagram:
    """Numerator closure of rational tangles and e half-twists side by side."""
    asm = _Assembler()
    parts = [_rational_tangle(asm, entries) for entries in tangles]
    parts.append(_integer_tangle(asm, e))
    for left, right in zip(parts, parts[1:]):
        asm.join(left[NE], right[NW])
        asm.join(left[SE], right[SW])
    whole = {NW: parts[0][NW], SW: parts[0][SW],
             NE: parts[-1][NE], SE: parts[-1][SE]}
    return _numerator_closure(asm, whole)


def cf_generic(q: Rational) -> ContinuedFraction:
    """Some continued fraction of q with no parity constraint (greedy)."""
    if q.is_infinite:
        raise PreconditionViolated("infinite slope has no expansion")
    entries: list[int] = []
    v = q
    while v != ZERO:
        r = v.reciprocal()
        c = (2 * r.num + r.den) // (2 * r.den)  # nearest integer
        if c == 0:
            c = 1 if r.num > 0 else -1
        entries.append(c)
        v = Rational(c) - r
    cf = ContinuedFraction(entries)
    assert cf_eval(cf) == q
    return cf


def tangle_entries(q: Rational) -> tuple[int, ...]:
    """Preferred expansion for compiling slope q: all-even when possible."""
    try:
        return cf_even(q).entries
    except BothOddError:
        return cf_generic(q).entries


# ----------------------------------------------------------- normal forms

@dataclass(frozen=True)
class TwoBridge:
    """Two-bridge link L(q/p) of rational slope q/p (p = determinant)."""
    slope: Rational

    def __post_init__(self):
        if self.slope.den < 0:
            raise PreconditionViolated("slope must be normalized")

    @property
    def p(self) -> int:
        return self.slope.den

    def __str__(self) -> str:
        return f"R({self.slope})"


@dataclass(frozen=True)
class MontesinosData:
    """Normal form M(e; t_1, ..., t_r) with t_i = beta_i/alpha_i in (-1, 1),
    alpha_i > 1, together with a chosen continued fraction per slope."""
    e: int
    slopes: tuple[Rational, ...]
    cfs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.slopes) != len(self.cfs):
            raise PreconditionViolated("one continued fraction per slope")
        for q, entries in zip(self.slopes, self.cfs):
            if q.is_infinite or q.den <= 1:
                raise PreconditionViolated(f"alpha must exceed 1: {q}")
            if not (-q.den < q.num < q.den):
                raise PreconditionViolated(f"slope out of range: {q}")
            if cf_eval(list(entries)) != q:
                raise PreconditionViolated(
                    f"continued fraction {list(entries)} does not equal {q}")

    @property
    def r(self) -> int:
        return len(self.slopes)

    def __str__(self) -> str:
        return f"M({self.e}; {', '.join(str(q) for q in self.slopes)})"


def montesinos_data(e: int, slopes) -> MontesinosData:
    """Normalize slopes into (-1, 1) (absorbing integer parts into e)."""
    e2, qs = montesinos_normalize(e, list(slopes))
    return MontesinosData(e2, tuple(qs), tuple(tangle_entries(q) for q in qs))


def montesinos_from_entries(e: int, entry_lists) -> MontesinosData:
    slopes = tuple(cf_eval(list(es)) for es in entry_lists)
    return MontesinosData(e, slopes, tuple(tuple(es) for es in entry_lists))


def compile_data(m: MontesinosData) -> Diagram:
    return compile_montesinos(m.e, [list(es) for es in m.cfs])


def compile_two_bridge(t: TwoBridge) -> Diagram:
    """Reduced alternating diagram of L(q/p); handedness fixed so that the
    slope 2/3 compiles to the positive trefoil (signature -2)."""
    return compile_rational(list(_alternating_diagram_entries(t.slope))).mirror()


# ------------------------------------------------------------ SQP verdicts

@dataclass(frozen=True)
class SqpVerdict:
    kind: str  # "SQP" | "NotSQP" | "Unknown"
    reason: str = ""
    witness: Optional[dict] = None

    @property
    def is_sqp(self) -> Optional[bool]:
        if self.kind == "SQP":
            return True
        if self.kind == "NotSQP":
            return False
        return None


UNKNOWN = SqpVerdict("Unknown")


def _all_negative_even(entries) -> bool:
    return all(c % 2 == 0 and c < 0 for c in entries)


def classify_prop15(m: MontesinosData) -> SqpVerdict:
    """Strong quasipositivity from the sign/parity pattern of the entries.

    Requires e even and nonnegative, r >= 3, every entry even and negative;
    the case is decided by how many tangles have odd-length expansions
    (none / all / exactly one).  Every match admits a positive orientation
    of the compiled diagram, which the caller may corroborate.
    """
    if m.e % 2 != 0 or m.e < 0 or m.r < 3:
        return UNKNOWN
    if not all(_all_negative_even(es) for es in m.cfs):
        return UNKNOWN
    odd = [i for i, es in enumerate(m.cfs) if len(es) % 2 == 1]
    if not odd:
        case = 1
    elif len(odd) == m.r:
        case = 2
    elif len(odd) == 1:
        case = 3
    else:
        return UNKNOWN
    return SqpVerdict("SQP", f"Prop1.5-{case}",
                      {"odd_length_tangles": odd})


def _even_cfs(m: MontesinosData) -> Optional[list[tuple[int, ...]]]:
    out = []
    for q in m.slopes:
        try:
            out.append(cf_even(q).entries)
        except BothOddError:
            return None
    return out


def _prop16_hypotheses(m: MontesinosData):
    """Even cfs and the index i0 with opposite leading entries, if the
    non-SQP detector's hypotheses all hold; None otherwise."""
    if m.e % 2 != 0 or m.r < 3:
        return None
    alphas = [q.den for q in m.slopes]
    betas = [q.num for q in m.slopes]
    if alphas[0] % 2 != 0:
        return None
    if any(a % 2 == 0 for a in alphas[1:]) or any(b % 2 != 0 for b in betas[1:]):
        return None
    ecs = _even_cfs(m)
    if ecs is None:
        return None
    if compile_data(m).components != 1:
        return None
    # leading-entry sign flip strictly inside the row; the wrap-around case
    # i0 = r is left undecided
    for i0 in range(2, m.r):  # 1-indexed i0 in [2, r-1]
        if ecs[i0 - 1][0] == -ecs[i0][0]:
            return ecs, i0
    return None


def detect_prop16(m: MontesinosData) -> SqpVerdict:
    """Non-SQP via the genus gap g(K) > g4(K) for the even-pattern knots."""
    hyp = _prop16_hypotheses(m)
    if hyp is None:
        return UNKNOWN
    ecs, i0 = hyp
    try:
        g = genus_hm(m)
        bound = band_move_bound(m, i0)
    except PreconditionViolated:
        return UNKNOWN
    if g > bound:
        return SqpVerdict("NotSQP", "Prop1.6",
                          {"i0": i0, "genus": g, "g4_bound": bound})
    return UNKNOWN


def genus_hm(m: MontesinosData) -> int:
    """Genus of the even-pattern Montesinos knot (Hirasawa-Murasugi).

    Three cases: e nonzero; e = 0 with leading halves not alternating
    +1/-1; and the alternating +1/-1 leading pattern, which subtracts
    min-leading-run data.
    """
    ecs = _even_cfs(m)
    if ecs is None:
        raise PreconditionViolated("genus formula needs even expansions")
    total = sum(len(es) for es in ecs)
    if m.e != 0:
        num = 1 + total
    else:
        halves = [es[0] // 2 for es in ecs]
        plus = [1 if i % 2 == 0 else -1 for i in range(m.r)]
        minus = [-x for x in plus]
        if halves != plus and halves != minus:
            num = -1 + total
        else:
            lead = 2 if halves == plus else -2
            ps = []
            for i, es in enumerate(ecs):  # i even <-> 1-indexed odd
                want = lead if i % 2 == 0 else -lead
                run = 0
                for c in es:
                    if c != want:
                        break
                    run += 1
                ps.append(run)
            p = min(ps)
            if (1 + total) % 2 != 0:
                raise PreconditionViolated("genus formula needs a knot")
            return (1 + total) // 2 - (p + 1)
    if num % 2 != 0:
        raise PreconditionViolated("genus formula needs a knot")
    return num // 2


def _alternating_diagram_entries(q: Rational) -> tuple[int, ...]:
    """Expansion of q whose compiled diagram is reduced alternating: the
    plus-convention Euclidean expansion with alternating signs restored.
    Integer or infinite slopes give the empty expansion (unknot closure)."""
    if q.is_infinite or q.den == 1:
        return ()
    p, n = q.den, q.num % q.den
    if n == 0:
        return ()
    entries = []
    num, den = n, p  # value num/den in (0, 1)
    while num:
        b, r = divmod(den, num)
        if r == 0:
            entries.append(b)
            break
        entries.append(b)
        den, num = num, den - b * num
    entries = [b if i % 2 == 0 else -b for i, b in enumerate(entries)]
    assert cf_eval(entries) == Rational(n, p)
    return tuple(entries)


def two_bridge_genus(t: TwoBridge) -> int:
    """Seifert genus of the two-bridge link, from a reduced alternating
    diagram (genus-minimizing)."""
    entries = _alternating_diagram_entries(t.slope)
    if not entries:
        return 0
    d = compile_rational(list(entries))
    assert d.is_alternating()
    o = d.oriented()
    g = o.seifert_genus_diagram()
    assert g.is_integer and g.num >= 0
    return g.num


def _slope_sum(e: int, slopes) -> Rational:
    v = Rational(e)
    for q in slopes:
        v = v + q
    return v


def band_move_bound(m: MontesinosData, i0: int) -> int:
    """Upper bound g(K') + g(L(q/p)) + 1 for the 4-genus after the band move
    merging tangles i0 and i0+1 (1-indexed)."""
    ecs = _even_cfs(m)
    if ecs is None or not (2 <= i0 <= m.r - 1):
        raise PreconditionViolated("band move needs the even-pattern class")
    a, b = ecs[i0 - 1], ecs[i0]
    if len(a) < 2 or len(b) < 2:
        raise PreconditionViolated("merged tangles need length >= 2")
    cap = max(len(a), len(b)) // 2  # strict bound on the merged-slope genus
    merged_options = [
        (a[1] + b[1],) + tuple(b[2:]),
        (b[1] + a[1],) + tuple(a[2:]),
    ]
    g_l = None
    for entries in merged_options:
        slope = cf_eval(list(entries))
        g = two_bridge_genus(TwoBridge(slope)) if not slope.is_infinite else 0
        if g < cap:
            g_l = g
            break
    if g_l is None:
        raise PreconditionViolated("merged two-bridge genus bound violated")

    rest_slopes = [q for i, q in enumerate(m.slopes, 1) if i not in (i0, i0 + 1)]
    rp = len(rest_slopes)
    if rp == 0:
        g_k = 0
    elif rp <= 2:
        v = _slope_sum(m.e, rest_slopes)
        g_k = 0 if v == ZERO else two_bridge_genus(TwoBridge(v.reciprocal()))
    else:
        g_k = genus_hm(montesinos_data(m.e, rest_slopes))
    return g_k + g_l + 1


def sqp_verdict(m: MontesinosData) -> SqpVerdict:
    """SQP classification: entry-pattern sufficiency, then the genus-gap
    obstruction, then a direct positive-orientation search (up to mirror)."""
    v = classify_prop15(m)
    if v.kind == "SQP":
        return v
    v = detect_prop16(m)
    if v.kind == "NotSQP":
        return v
    return positive_orientation_verdict(compile_data(m))


def positive_orientation_verdict(d: Diagram) -> SqpVerdict:
    """SQP when d or its mirror has an orientation with every crossing
    positive, else Unknown."""
    from .invariants import find_positive_orientation
    if find_positive_orientation(d) is not None:
        return SqpVerdict("SQP", "PositiveOrientation")
    if find_positive_orientation(d.mirror()) is not None:
        return SqpVerdict("SQP", "PositiveOrientation",
                          {"mirrored": True})
    return UNKNOWN


# --------------------------------------------------- elementary replacement

def halfslope_sites(d: Diagram) -> list[tuple[int, int]]:
    """Crossing pairs forming an elementary slope -1/2 tangle as compiled:
    two crossings joined by the two internal arcs of a rotated twist pair."""
    sites = []
    for c0 in range(d.n):
        for c1 in range(d.n):
            if c0 == c1:
                continue
            if (d.pairing[4 * c0 + 0] == 4 * c1 + 1
                    and d.pairing[4 * c0 + 3] == 4 * c1 + 2):
                sites.append((c0, c1))
    return sites


def tangle_replace(d: Diagram, site: tuple[int, int]) -> Diagram:
    """Replace the elementary 2-crossing tangle of slope -1/2 at ``site``
    by two horizontal half-twists of slope -2; every other crossing is
    untouched."""
    c0, c1 = site
    if site not in halfslope_sites(d):
        raise PreconditionViolated(f"site {site} is not a [-1/2] tangle")
    pairing = list(d.pairing)
    ext_a = pairing[4 * c0 + 1]
    ext_b = pairing[4 * c0 + 2]
    ext_c = pairing[4 * c1 + 0]
    ext_d = pairing[4 * c1 + 3]
    legs = {4 * c0 + 1, 4 * c0 + 2, 4 * c1 + 0, 4 * c1 + 3}
    if {ext_a, ext_b, ext_c, ext_d} & legs:
        raise PreconditionViolated("site boundary folds back onto itself")

    def pair(a, b):
        pairing[a] = b
        pairing[b] = a

    pair(4 * c0 + 1, 4 * c1 + 2)
    pair(4 * c0 + 0, 4 * c1 + 3)
    pair(ext_c, 4 * c0 + 2)
    pair(ext_a, 4 * c0 + 3)
    pair(ext_d, 4 * c1 + 1)
    pair(ext_b, 4 * c1 + 0)
    out = Diagram(tuple(pairing), d.free_loops)
    out.validate()
    return out
