"""Exact rational arithmetic and continued-fraction calculus.

Continued fractions follow the minus convention

    [a1, a2, ..., an] = 1 / (a1 - 1/(a2 - 1/(a3 - ...)))

and all arithmetic is exact.  The slope "infinity" is a first-class value
``Rational(1, 0)`` rather than an error, because merged tangle slopes can
degenerate to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


class BothOddError(ValueError):
    """No all-even continued fraction exists (numerator and denominator odd)."""


class PreconditionViolated(ValueError):
    """Input violates the documented hypotheses of an operation."""


@dataclass(frozen=True)
class Rational:
    """Reduced fraction num/den with den >= 0; den == 0 encodes infinity."""

    num: int
    den: int = 1

    def __post_init__(self):
        n, d = self.num, self.den
        if d == 0:
            n = 1
        elif n == 0:
            d = 1
        else:
            g = gcd(abs(n), abs(d))
            n //= g
            d //= g
        if d < 0:
            n, d = -n, -d
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    @property
    def is_integer(self) -> bool:
        return self.den == 1

    def __add__(self, other: "Rational | int") -> "Rational":
        other = _coerce(other)
        if self.is_infinite or other.is_infinite:
            return INF
        return Rational(self.num * other.den + other.num * self.den,
                        self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "Rational":
        return Rational(-self.num, self.den)

    def __sub__(self, other: "Rational | int") -> "Rational":
        return self + (-_coerce(other))

    def __rsub__(self, other: int) -> "Rational":
        return _coerce(other) + (-self)

    def __mul__(self, other: "Rational | int") -> "Rational":
        other = _coerce(other)
        if self.is_infinite or other.is_infinite:
            return INF
        return Rational(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def reciprocal(self) -> "Rational":
        return Rational(self.den, self.num)

    def __abs__(self) -> "Rational":
        return Rational(abs(self.num), self.den)

    def __lt__(self, other: "Rational | int") -> bool:
        other = _coerce(other)
        if self.is_infinite or other.is_infinite:
            raise ValueError("infinite slope is not ordered")
        return self.num * other.den < other.num * self.den

    def __le__(self, other: "Rational | int") -> bool:
        return self == _coerce(other) or self < other

    def __str__(self) -> str:
        if self.is_infinite:
            return "inf"
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"


def _coerce(x) -> Rational:
    if isinstance(x, Rational):
        return x
    if isinstance(x, int):
        return Rational(x)
    raise TypeError(f"cannot coerce {x!r} to Rational")


INF = Rational(1, 0)
ZERO = Rational(0)


@dataclass(frozen=True)
class ContinuedFraction:
    entries: tuple[int, ...]

    def __init__(self, entries):
        object.__setattr__(self, "entries", tuple(entries))

    @property
    def is_even(self) -> bool:
        return all(c % 2 == 0 for c in self.entries)

    @property
    def is_strict(self) -> bool:
        """Even entries at odd positions; sign alternation after a +/-2 there."""
        cs = self.entries
        for j, c in enumerate(cs, start=1):
            if j % 2 == 1:
                if c % 2 != 0:
                    return False
                if abs(c) == 2 and j < len(cs) and c * cs[j] >= 0:
                    return False
        return True


def cf_eval(cf: ContinuedFraction | list[int] | tuple[int, ...]) -> Rational:
    """Exact value of a continued fraction; the empty list is slope infinity."""
    entries = cf.entries if isinstance(cf, ContinuedFraction) else tuple(cf)
    if not entries:
        return INF
    # projective fold: x -> c - 1/x on pairs (n, d) representing n/d
    n, d = 1, 0
    for c in reversed(entries):
        n, d = c * n - d, n
    return Rational(d, n)


def cf_even(q: Rational) -> ContinuedFraction:
    """All-even continued fraction of q; fails when num and den are both
    odd, and when |q| >= 1, which no all-even expansion reaches."""
    if q.is_infinite:
        raise PreconditionViolated("infinite slope has no expansion")
    if q.num % 2 == 1 and q.den % 2 == 1:
        raise BothOddError(f"{q} has odd numerator and denominator")
    if abs(q.num) >= q.den:
        raise PreconditionViolated(f"{q} is not in (-1, 1)")
    cf = _nearest_multiples(q, 2)
    assert cf.is_even
    return cf


def cf_generic(q: Rational) -> ContinuedFraction:
    """Some continued fraction of q with no parity constraint (greedy)."""
    if q.is_infinite:
        raise PreconditionViolated("infinite slope has no expansion")
    return _nearest_multiples(q, 1)


def _nearest_multiples(q: Rational, step: int) -> ContinuedFraction:
    """Expansion of q whose every entry is the multiple of ``step``
    nearest the reciprocal of what is left (halves round up), taking
    +-step in place of 0."""
    entries: list[int] = []
    v = q
    while v != ZERO:
        r = v.reciprocal()
        c = step * ((2 * r.num + step * r.den) // (2 * step * r.den))
        if c == 0:
            c = step if r.num > 0 else -step
        entries.append(c)
        v = Rational(c) - r
    cf = ContinuedFraction(entries)
    assert cf_eval(cf) == q
    return cf


def cf_strict(q: Rational) -> ContinuedFraction:
    """A strict continued fraction of q (den odd, 2|num| < den, gcd = 1)."""
    if q.is_infinite or q.den % 2 == 0 or q.den <= 0 or 2 * abs(q.num) >= q.den:
        raise PreconditionViolated(f"{q} violates the strict-expansion hypotheses")
    entries = _StrictSearch().run(q)
    if entries is None:
        raise PreconditionViolated(f"no strict expansion found for {q}")
    cf = ContinuedFraction(entries)
    assert cf.is_strict and cf_eval(cf) == q
    return cf


class _StrictSearch:
    """Bounded DFS over candidate entries.

    State: (remaining value, position parity, sign forced by a +-2 at the
    previous odd position).  Failed states are memoized, so the search is
    complete up to the node budget; any expansion passing the round-trip
    and strictness checks is acceptable.
    """

    BUDGET = 50_000

    def __init__(self):
        self.failed: set[tuple[Rational, int, int]] = set()
        self.nodes = 0

    def run(self, q: Rational):
        return self._search(q, 1, 0)

    def _search(self, v: Rational, position: int, forced_sign: int):
        if v == ZERO:
            return []
        state = (v, position % 2, forced_sign)
        if state in self.failed or self.nodes > self.BUDGET:
            return None
        self.nodes += 1
        r = v.reciprocal()
        odd = position % 2 == 1
        base = r.num // r.den
        if odd:
            lo = 2 * (base // 2)
            candidates = (lo, lo + 2, lo - 2, lo + 4)
        else:
            candidates = (base, base + 1, base - 1, base + 2)
        for c in candidates:
            if c == 0:
                continue
            if forced_sign and c * forced_sign <= 0:
                continue
            nxt = Rational(c) - r
            if nxt != ZERO and abs(nxt) >= Rational(2):
                continue
            nxt_force = 0
            if odd and abs(c) == 2:
                nxt_force = -1 if c > 0 else 1
            sub = self._search(nxt, position + 1, nxt_force)
            if sub is not None:
                return [c] + sub
        self.failed.add(state)
        return None


def montesinos_normalize(e: int, slopes) -> tuple[int, list[Rational]]:
    """Bring slopes into the normal range alpha > 1, -alpha < beta < alpha.

    Integer parts are absorbed into e (truncation toward zero keeps slopes
    already in range untouched); e + sum(slopes) is preserved exactly.
    """
    out: list[Rational] = []
    ee = e
    for t in slopes:
        t = _coerce(t)
        if t.is_infinite:
            raise PreconditionViolated("slope with zero denominator")
        if t.is_integer:
            ee += t.num
            continue
        # truncate toward zero so slopes already in range stay untouched
        if t.num < 0:
            k = -((-t.num) // t.den)
        else:
            k = t.num // t.den
        frac = t - k
        ee += k
        if frac != ZERO:
            out.append(frac)
    return ee, out
