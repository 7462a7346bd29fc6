import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qalinks.cfrac import (
    BothOddError,
    PreconditionViolated,
    cf_alternating,
    cf_even,
    cf_eval,
    cf_generic,
    cf_strict,
    montesinos_normalize,
)
from qalinks.montesinos import _alternating_diagram_entries


def naive_eval(entries):
    """Independent evaluator: literal recursion on [c1,...] = 1/(c1 - tail),
    over Python Fractions with None for infinity."""
    if not entries:
        return None
    tail = Fraction(0) if len(entries) == 1 else naive_eval(entries[1:])
    if tail is None:
        return Fraction(0)  # 1/(c - inf)
    denom = Fraction(entries[0]) - tail
    if denom == 0:
        return None
    return Fraction(1) / denom


def strict(entries):
    """Independent strictness test: every odd position holds an even
    entry, and a +-2 there is followed by an entry of the opposite sign."""
    odd = entries[0::2]
    after = entries[1::2]
    return (all(c % 2 == 0 for c in odd)
            and all(c * nxt < 0 for c, nxt in zip(odd, after) if abs(c) == 2))


class TestEval:
    def test_single(self):
        assert cf_eval([2]) == Fraction(1, 2)

    def test_two(self):
        assert cf_eval([2, -2]) == Fraction(2, 5)

    def test_four(self):
        assert cf_eval([-2, -2, -2, -2]) == Fraction(-4, 5)

    def test_empty_is_infinity(self):
        assert cf_eval([]) is None

    def test_zero_entry_is_infinity(self):
        assert cf_eval([0]) is None

    def test_division_by_zero_midway(self):
        assert cf_eval([1, 1]) is None  # 1 - 1/1 = 0 in the denominator

    def test_fuzz_against_naive(self):
        rng = random.Random(7)
        for _ in range(10_000):
            n = rng.randint(1, 8)
            entries = [rng.randint(-9, 9) for _ in range(n)]
            assert cf_eval(entries) == naive_eval(tuple(entries)), entries


class TestEven:
    def test_half(self):
        assert cf_even(Fraction(1, 2)) == (2,)

    def test_two_fifths(self):
        assert cf_even(Fraction(2, 5)) == (2, -2)

    def test_both_odd(self):
        with pytest.raises(BothOddError):
            cf_even(Fraction(3, 5))

    def test_pinned_entries(self):
        for (num, den), entries in (((2, 5), (2, -2)), ((-4, 7), (-2, -4)),
                                    ((6, 11), (2, 6))):
            assert cf_even(Fraction(num, den)) == entries

    def test_out_of_range_rejected(self):
        # an all-even expansion always has |value| < 1
        for q in (Fraction(3, 2), Fraction(5, 4), Fraction(2), Fraction(-4, 3)):
            with pytest.raises(PreconditionViolated):
                cf_even(q)
        with pytest.raises(BothOddError):
            cf_even(Fraction(1))

    def test_zero_rejected(self):
        # the expansion of 0 would be empty, and the empty expansion is
        # slope infinity
        with pytest.raises(PreconditionViolated):
            cf_even(Fraction(0))

    @given(st.integers(-40, 40), st.integers(1, 41))
    @settings(max_examples=400)
    def test_round_trip(self, num, den):
        q = Fraction(num, den)
        if q == 0 or (q.numerator % 2 and q.denominator % 2) or abs(q) >= 1:
            return
        cf = cf_even(q)
        assert all(c % 2 == 0 for c in cf)
        assert all(c != 0 for c in cf)
        assert cf_eval(cf) == q


class TestGeneric:
    def test_pinned_entries(self):
        for (num, den), entries in (((1, 3), (3,)), ((-1, 3), (-3,)),
                                    ((3, 5), (2, 3)), ((5, 7), (1, -2, 2)),
                                    ((-7, 9), (-1, 4, 2)),
                                    ((11, 13), (1, -5, 2))):
            assert cf_generic(Fraction(num, den)) == entries

    def test_zero_rejected(self):
        with pytest.raises(PreconditionViolated):
            cf_generic(Fraction(0))


class TestAlternating:
    def test_pinned_entries(self):
        for (num, den), entries in (((2, 3), (1, -2)), ((1, 2), (2,)),
                                    ((-2, 5), (1, -1, 2)), ((3, 7), (2, -3)),
                                    ((5, 8), (1, -1, 1, -2)),
                                    ((-7, 9), (4, -2)),
                                    ((13, 21), (1, -1, 1, -1, 1, -2)),
                                    ((11, 4), (1, -3)), ((-1, 3), (1, -2)),
                                    ((0, 1), ()), ((3, 1), ())):
            assert _alternating_diagram_entries(Fraction(num, den)) == entries


class TestAllSlopes:
    """Every reduced slope in (-1, 1) with denominator below 200."""

    SLOPES = [Fraction(num, den) for den in range(2, 200)
              for num in range(1 - den, den) if gcd(num, den) == 1]

    def test_generic(self):
        for q in self.SLOPES:
            cf = cf_generic(q)
            assert 0 not in cf and cf_eval(cf) == q, q

    def test_even(self):
        for q in self.SLOPES:
            if q.numerator % 2 and q.denominator % 2:
                continue
            cf = cf_even(q)
            assert all(c % 2 == 0 and c != 0 for c in cf), q
            assert cf_eval(cf) == q, q

    def test_alternating(self):
        for q in self.SLOPES:
            cf = cf_alternating(q % 1)
            assert all((-1) ** i * c > 0 for i, c in enumerate(cf)), q
            assert cf_eval(cf) == q % 1, q
            assert _alternating_diagram_entries(q) == cf, q


class TestStrict:
    def test_two_sevenths(self):
        cf = cf_strict(Fraction(2, 7))
        assert strict(cf) and cf_eval(cf) == Fraction(2, 7)

    def test_one_third(self):
        cf = cf_strict(Fraction(1, 3))
        assert strict(cf) and cf_eval(cf) == Fraction(1, 3)

    def test_hypothesis_violation(self):
        with pytest.raises(PreconditionViolated):
            cf_strict(Fraction(3, 5))

    @given(st.integers(-40, 40), st.integers(3, 81))
    @settings(max_examples=400, deadline=None)
    def test_round_trip(self, num, den):
        if den % 2 == 0:
            den += 1
        q = Fraction(num, den)
        if (q == 0 or q.denominator % 2 == 0
                or 2 * abs(q.numerator) >= q.denominator):
            return
        cf = cf_strict(q)
        assert strict(cf)
        assert cf_eval(cf) == q


class TestNormalize:
    def test_absorb_integer_part(self):
        e, slopes = montesinos_normalize(0, [Fraction(5, 3), Fraction(1, 2)])
        assert e == 1 and slopes == [Fraction(2, 3), Fraction(1, 2)]

    def test_already_normal(self):
        e, slopes = montesinos_normalize(2, [Fraction(-1, 2)])
        assert e == 2 and slopes == [Fraction(-1, 2)]

    def test_integer_slope_absorbed(self):
        e, slopes = montesinos_normalize(0, [Fraction(7, 2)])
        assert e == 3 and slopes == [Fraction(1, 2)]

    @given(st.integers(-3, 3),
           st.lists(st.tuples(st.integers(-15, 15), st.integers(1, 9)),
                    min_size=1, max_size=4))
    @settings(max_examples=300)
    def test_sum_preserved(self, e, raw):
        slopes = [Fraction(n, d) for n, d in raw]
        e2, out = montesinos_normalize(e, slopes)
        before = e + sum(slopes)
        after = e2 + sum(out)
        assert before == after
        for t in out:
            assert (t.denominator > 1
                    and -t.denominator < t.numerator < t.denominator)
