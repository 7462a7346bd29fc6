"""Rational tangles, two-bridge links and Montesinos links.

Tangles are assembled from elementary twists: a continued fraction
[c1, c2, ..., cn] = 1/(c1 - 1/(c2 - ...)) compiles to the rational tangle
of that slope, a Montesinos link M(e; t1, ..., tr) is the numerator closure
of r rational tangles and e extra half-twists placed side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cfrac import (
    BothOddError,
    PreconditionViolated,
    cf_alternating,
    cf_eval,
    cf_even,
    cf_generic,
    montesinos_normalize,
)
from .diagram import UNKNOT, Diagram
from .invariants import genus_certified, report_orientation

NW, NE, SE, SW = range(4)  # a tangle is its four ends in this order

# Slot of each corner, indexed as a tangle is, for a twist crossing
# between two horizontal strands.  Slots run counterclockwise with the
# under strand at slots 0 and 2; the two maps differ by a rotation, i.e.
# by a crossing change.
_POS_TWIST = (1, 0, 3, 2)
_NEG_TWIST = (2, 1, 0, 3)


class _Assembler:
    """Accumulates crossings and strand connections, writing the arc
    pairing as it joins, then emits a Diagram.

    An end is an int: a crossing slot, the half-edge ``4*c + s``, or a
    negative wire end.  ``far`` takes each open wire end to the far side
    of its chain.  A join links the far sides of its two ends and pairs
    them once both are half-edges; a wire chain that closes on itself
    touches no crossing and becomes a free loop.
    """

    def __init__(self):
        self.pairing: list[int] = []
        self.far: dict[int, int] = {}
        self.loops = 0
        self._wires = 0

    def wire(self) -> tuple[int, int]:
        self._wires += 1
        a, b = -2 * self._wires, 1 - 2 * self._wires
        self.far[a], self.far[b] = b, a
        return a, b

    def join(self, a: int, b: int) -> None:
        far = self.far
        if a < 0 and far.get(a) == b:
            del far[a], far[b]
            self.loops += 1
            return
        fa = far.pop(a) if a < 0 else a
        fb = far.pop(b) if b < 0 else b
        for x, y in ((fa, fb), (fb, fa)):
            if x < 0:
                far[x] = y
            elif y >= 0:
                self.pairing[x] = y

    def twists(self, ne: int, se: int, count: int,
               slots: tuple[int, ...]) -> tuple[int, int]:
        """Append ``count`` >= 1 horizontal half-twists to the right of
        the ends ``ne`` and ``se``, each a new crossing whose corners sit
        at ``slots``; returns the new right ends.  Only the first crossing
        is joined, as the old ends may be wire ends; each arc inside the
        run, NE to the next NW and SE to the next SW, is written into the
        pairing directly."""
        nw_s, ne_s, se_s, sw_s = slots
        pr = self.pairing
        h = len(pr)  # half-edge 0 of the crossing being added
        pr += (-1,) * (4 * count)
        self.join(ne, h + nw_s)
        self.join(se, h + sw_s)
        for _ in range(count - 1):
            a, b = h + ne_s, h + 4 + nw_s
            pr[a], pr[b] = b, a
            a, b = h + se_s, h + 4 + sw_s
            pr[a], pr[b] = b, a
            h += 4
        return h + ne_s, h + se_s

    def diagram(self) -> Diagram:
        if self.far or -1 in self.pairing:
            raise PreconditionViolated("dangling tangle boundary")
        d = Diagram(tuple(self.pairing), free_loops=self.loops)
        d.validate()
        return d


def _zero_tangle(asm: _Assembler) -> tuple[int, int, int, int]:
    top = asm.wire()
    bottom = asm.wire()
    return top[0], top[1], bottom[1], bottom[0]


def _rational_stem(asm: _Assembler,
                   entries: Sequence[int]) -> tuple[int, int, int, int]:
    """Tangle of slope -(c1 - 1/(c2 - ...)), one rotation short of T(q).

    Its slope has numerator alpha (the denominator of q), so its numerator
    closure is the two-bridge link of determinant alpha.  Built inside-out
    from the zero tangle: the last entry's twists first (slope t -> t - 1
    per twist when the entry is positive), then a quarter turn
    counterclockwise (slope t -> -1/t) and the twists of each earlier
    entry.
    """
    nw, ne, se, sw = _zero_tangle(asm)
    for i, c in enumerate(reversed(entries)):
        if i:
            nw, ne, se, sw = ne, se, sw, nw
        if c:
            ne, se = asm.twists(ne, se, abs(c),
                                _NEG_TWIST if c > 0 else _POS_TWIST)
    return nw, ne, se, sw


def _rational_tangle(asm: _Assembler,
                     entries: Sequence[int]) -> tuple[int, int, int, int]:
    """Tangle of slope 1/(c1 - 1/(c2 - ...))."""
    if not entries:
        return _zero_tangle(asm)
    nw, ne, se, sw = _rational_stem(asm, entries)
    return ne, se, sw, nw


def _numerator_closure(asm: _Assembler, t: tuple[int, ...]) -> Diagram:
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
    parts.append(_rational_stem(asm, [-e]))  # slope e
    for left, right in zip(parts, parts[1:]):
        asm.join(left[NE], right[NW])
        asm.join(left[SE], right[SW])
    whole = (parts[0][NW], parts[-1][NE], parts[-1][SE], parts[0][SW])
    return _numerator_closure(asm, whole)


def tangle_entries(q: Fraction) -> tuple[int, ...]:
    """Preferred expansion for compiling slope q: all-even when possible."""
    try:
        return cf_even(q)
    except BothOddError:
        return cf_generic(q)


# ----------------------------------------------------------- normal forms

@dataclass(frozen=True)
class TwoBridge:
    """Two-bridge link L(q/p) of rational slope q/p (p = determinant)."""
    slope: Fraction

    def __str__(self) -> str:
        return f"R({self.slope})"


def two_bridge_slope(e: int, slopes) -> Optional[Fraction]:
    """Slope of M(e; t1) or M(e; t1, t2), the numerator closure of the
    rational tangles p/q = e + t1 and r/s = t2 (0/1 for one tangle); None
    for the infinite slope, where the closure splits.

    With r s' - s r' = 1, N(p/q + r/s) is the two-bridge link of
    determinant |P| = |ps + qr| with Q = ps' + qr', which is L(-Q/P) in
    this package's handedness.  Another choice of (r', s') adds a multiple
    of P to Q, which changes the slope by an integer only.
    """
    first = e + slopes[0]
    second = slopes[1] if len(slopes) > 1 else Fraction(0)
    p, q = first.numerator, first.denominator
    r, s = second.numerator, second.denominator
    s1 = pow(r, -1, s)
    r1 = (r * s1 - 1) // s
    big_p = p * s + q * r
    return Fraction(-(p * s1 + q * r1), big_p) if big_p else None


@dataclass(frozen=True)
class MontesinosData:
    """Normal form M(e; t_1, ..., t_r) with t_i = beta_i/alpha_i in (-1, 1),
    alpha_i > 1, together with a chosen continued fraction per slope."""
    e: int
    slopes: tuple[Fraction, ...]
    cfs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.slopes) != len(self.cfs):
            raise PreconditionViolated("one continued fraction per slope")
        for q, entries in zip(self.slopes, self.cfs):
            if q is None or q.denominator <= 1:
                raise PreconditionViolated(f"alpha must exceed 1: {q}")
            if not -1 < q < 1:
                raise PreconditionViolated(f"slope out of range: {q}")
            if cf_eval(entries) != q:
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
    slopes = tuple(cf_eval(es) for es in entry_lists)
    return MontesinosData(e, slopes, tuple(tuple(es) for es in entry_lists))


def compile_data(m: MontesinosData) -> Diagram:
    return compile_montesinos(m.e, m.cfs)


def compile_two_bridge(t: TwoBridge) -> Diagram:
    """Reduced alternating diagram of L(q/p); handedness fixed so that the
    slope 2/3 compiles to the positive trefoil (signature -2).  An integer
    slope (p = 1) gives the 0-crossing unknot."""
    if t.slope.denominator == 1:
        return UNKNOT
    return compile_rational(_alternating_diagram_entries(t.slope)).mirror()


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
            out.append(cf_even(q))
        except BothOddError:
            return None
    return out


def _prop16_hypotheses(m: MontesinosData):
    """Even cfs and the index i0 with opposite leading entries, if the
    non-SQP detector's hypotheses all hold; None otherwise."""
    if m.e % 2 != 0 or m.r < 3:
        return None
    alphas = [q.denominator for q in m.slopes]
    betas = [q.numerator for q in m.slopes]
    if alphas[0] % 2 != 0:
        return None
    if any(a % 2 == 0 for a in alphas[1:]) or any(b % 2 != 0 for b in betas[1:]):
        return None  # else exactly one alpha_i is even: m is a knot
    ecs = _even_cfs(m)
    if ecs is None:
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


def _alternating_diagram_entries(q: Fraction) -> tuple[int, ...]:
    """Expansion of q mod 1 whose compiled diagram is reduced alternating.
    Integer slopes give the empty expansion (unknot closure)."""
    return cf_alternating(q % 1) if q.denominator > 1 else ()


def two_bridge_genus(t: TwoBridge) -> int:
    """Seifert genus of the two-bridge link, from a reduced alternating
    diagram (genus-minimizing)."""
    entries = _alternating_diagram_entries(t.slope)
    if not entries:
        return 0
    return genus_certified(compile_rational(entries).oriented()).genus


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
        slope = cf_eval(entries)
        g = two_bridge_genus(TwoBridge(slope)) if slope is not None else 0
        if g < cap:
            g_l = g
            break
    if g_l is None:
        raise PreconditionViolated("merged two-bridge genus bound violated")

    rest_slopes = [q for i, q in enumerate(m.slopes, 1) if i not in (i0, i0 + 1)]
    if len(rest_slopes) <= 2:
        slope = two_bridge_slope(m.e, rest_slopes)
        g_k = two_bridge_genus(TwoBridge(slope)) if slope is not None else 0
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
    """SQP when d's report orientation makes every crossing positive, or
    every crossing negative (its mirror is then positive), else Unknown."""
    o = report_orientation(d)
    w = o.writhe()
    if w == o.n:
        return SqpVerdict("SQP", "PositiveOrientation")
    if w == -o.n:
        return SqpVerdict("SQP", "PositiveOrientation", {"mirrored": True})
    return UNKNOWN
