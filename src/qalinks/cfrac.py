"""Continued-fraction calculus on exact rationals.

Slopes are ``fractions.Fraction`` values and an expansion is a tuple of
int entries, in the minus convention

    [a1, a2, ..., an] = 1 / (a1 - 1/(a2 - 1/(a3 - ...)))

``cf_eval`` returns ``None`` for the infinite slope: the empty expansion
and any expansion whose continuant is 0.  One loop gives the generic, the
all-even and the alternating expansions; they differ only in the rule
that picks each entry from the reciprocal of what is left.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Sequence


class BothOddError(ValueError):
    """No all-even continued fraction exists (numerator and denominator odd)."""


class PreconditionViolated(ValueError):
    """Input violates the documented hypotheses of an operation."""


def cf_eval(entries: Sequence[int]) -> Optional[Fraction]:
    """Exact value of a continued fraction; None for slope infinity."""
    if not entries:
        return None
    # projective fold: x -> c - 1/x on pairs (n, d) representing n/d
    n, d = 1, 0
    for c in reversed(entries):
        n, d = c * n - d, n
    return Fraction(d, n) if n else None


def cf_even(q: Fraction) -> tuple[int, ...]:
    """All-even continued fraction of q; fails when numerator and
    denominator are both odd, and when q is 0 or |q| >= 1, which no
    all-even expansion reaches."""
    if q.numerator % 2 == 1 and q.denominator % 2 == 1:
        raise BothOddError(f"{q} has odd numerator and denominator")
    if not 0 < abs(q) < 1:
        raise PreconditionViolated(f"{q} is not in (-1, 1) minus 0")
    return _expand(q, lambda r: _nearest_multiple(r, 2))


def cf_generic(q: Fraction) -> tuple[int, ...]:
    """Some continued fraction of q != 0 with no parity constraint:
    each entry is the integer nearest the reciprocal of what is left."""
    return _expand(q, lambda r: _nearest_multiple(r, 1))


def cf_alternating(q: Fraction) -> tuple[int, ...]:
    """The expansion of q in (0, 1) whose entries alternate in sign: each
    entry truncates the reciprocal of what is left toward zero, which
    gives the plus-convention Euclidean expansion with signs alternated."""
    return _expand(q, int)


def _nearest_multiple(r: Fraction, step: int) -> int:
    """The multiple of ``step`` nearest r (halves round up), taking
    +-step in place of 0."""
    n, d = r.numerator, r.denominator
    c = step * ((2 * n + step * d) // (2 * step * d))
    return c or (step if n > 0 else -step)


def _expand(q: Fraction, entry: Callable[[Fraction], int]) -> tuple[int, ...]:
    """Expansion of q != 0 whose every entry is ``entry`` of the
    reciprocal of what is left."""
    if not q:
        raise PreconditionViolated("slope 0 has no expansion")
    entries = []
    v = q
    while v:
        r = 1 / v
        c = entry(r)
        entries.append(c)
        v = c - r
    assert cf_eval(entries) == q
    return tuple(entries)


def cf_strict(q: Fraction) -> tuple[int, ...]:
    """A strict continued fraction of q (den odd, 2|num| < den, gcd = 1)."""
    if q.denominator % 2 == 0 or 2 * abs(q.numerator) >= q.denominator:
        raise PreconditionViolated(f"{q} violates the strict-expansion hypotheses")
    entries = _StrictSearch().run(q)
    if entries is None:
        raise PreconditionViolated(f"no strict expansion found for {q}")
    assert _is_strict(entries) and cf_eval(entries) == q
    return tuple(entries)


def _is_strict(cs: Sequence[int]) -> bool:
    """Even entries at odd positions; sign alternation after a +/-2 there."""
    for j, c in enumerate(cs, start=1):
        if j % 2 == 1:
            if c % 2 != 0:
                return False
            if abs(c) == 2 and j < len(cs) and c * cs[j] >= 0:
                return False
    return True


class _StrictSearch:
    """Bounded DFS over candidate entries.

    State: (remaining value, position parity, sign forced by a +-2 at the
    previous odd position).  Failed states are memoized, so the search is
    complete up to the node budget; any expansion passing the round-trip
    and strictness checks is acceptable.
    """

    BUDGET = 50_000

    def __init__(self):
        self.failed: set[tuple[Fraction, int, int]] = set()
        self.nodes = 0

    def run(self, q: Fraction):
        return self._search(q, 1, 0)

    def _search(self, v: Fraction, position: int, forced_sign: int):
        if not v:
            return []
        state = (v, position % 2, forced_sign)
        if state in self.failed or self.nodes > self.BUDGET:
            return None
        self.nodes += 1
        r = 1 / v
        odd = position % 2 == 1
        base = r.numerator // r.denominator
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
            nxt = c - r
            if abs(nxt) >= 2:
                continue
            nxt_force = 0
            if odd and abs(c) == 2:
                nxt_force = -1 if c > 0 else 1
            sub = self._search(nxt, position + 1, nxt_force)
            if sub is not None:
                return [c] + sub
        self.failed.add(state)
        return None


def montesinos_normalize(e: int, slopes) -> tuple[int, list[Fraction]]:
    """Bring slopes into the normal range alpha > 1, -alpha < beta < alpha.

    Integer parts are absorbed into e (truncation toward zero keeps slopes
    already in range untouched); e + sum(slopes) is preserved exactly.
    """
    out: list[Fraction] = []
    for t in slopes:
        k = int(t)
        e += k
        if t != k:
            out.append(t - k)
    return e, out
