import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qalinks.cfrac import (
    INF,
    ZERO,
    BothOddError,
    PreconditionViolated,
    Rational,
    cf_even,
    cf_eval,
    cf_generic,
    cf_strict,
    montesinos_normalize,
)


def naive_eval(entries):
    """Independent evaluator: literal recursion on [c1,...] = 1/(c1 - tail),
    over Python Fractions with an explicit infinity sentinel."""
    if not entries:
        return "inf"
    tail = Fraction(0) if len(entries) == 1 else naive_eval(entries[1:])
    if tail == "inf":
        return Fraction(0)  # 1/(c - inf)
    denom = Fraction(entries[0]) - tail
    if denom == 0:
        return "inf"
    return Fraction(1) / denom


def rat(f):
    if f == "inf":
        return INF
    return Rational(f.numerator, f.denominator)


class TestEval:
    def test_single(self):
        assert cf_eval([2]) == Rational(1, 2)

    def test_two(self):
        assert cf_eval([2, -2]) == Rational(2, 5)

    def test_four(self):
        assert cf_eval([-2, -2, -2, -2]) == Rational(-4, 5)

    def test_empty_is_infinity(self):
        assert cf_eval([]) == INF

    def test_zero_entry_is_infinity(self):
        assert cf_eval([0]) == INF

    def test_division_by_zero_midway(self):
        assert cf_eval([1, 1]) == INF  # 1 - 1/1 = 0 in the denominator

    def test_fuzz_against_naive(self):
        rng = random.Random(7)
        for _ in range(10_000):
            n = rng.randint(1, 8)
            entries = [rng.randint(-9, 9) for _ in range(n)]
            got = cf_eval(entries)
            expect = naive_eval(tuple(entries))
            if expect == "inf":
                assert got.is_infinite, entries
            else:
                assert got == rat(expect), entries


class TestEven:
    def test_half(self):
        assert cf_even(Rational(1, 2)).entries == (2,)

    def test_two_fifths(self):
        assert cf_even(Rational(2, 5)).entries == (2, -2)

    def test_both_odd(self):
        with pytest.raises(BothOddError):
            cf_even(Rational(3, 5))

    def test_pinned_entries(self):
        for (num, den), entries in (((2, 5), (2, -2)), ((-4, 7), (-2, -4)),
                                    ((6, 11), (2, 6))):
            assert cf_even(Rational(num, den)).entries == entries

    def test_out_of_range_rejected(self):
        # an all-even expansion always has |value| < 1
        for q in (Rational(3, 2), Rational(5, 4), Rational(2), Rational(-4, 3)):
            with pytest.raises(PreconditionViolated):
                cf_even(q)
        with pytest.raises(BothOddError):
            cf_even(Rational(1))

    @given(st.integers(-40, 40), st.integers(1, 41))
    @settings(max_examples=400)
    def test_round_trip(self, num, den):
        q = Rational(num, den)
        if q == ZERO or (q.num % 2 and q.den % 2) or abs(q) >= Rational(1):
            return
        cf = cf_even(q)
        assert cf.is_even
        assert all(c != 0 for c in cf.entries)
        assert cf_eval(cf) == q


class TestGeneric:
    def test_pinned_entries(self):
        for (num, den), entries in (((1, 3), (3,)), ((-1, 3), (-3,)),
                                    ((3, 5), (2, 3)), ((5, 7), (1, -2, 2)),
                                    ((-7, 9), (-1, 4, 2)),
                                    ((11, 13), (1, -5, 2))):
            assert cf_generic(Rational(num, den)).entries == entries


class TestStrict:
    def test_two_sevenths(self):
        cf = cf_strict(Rational(2, 7))
        assert cf.is_strict and cf_eval(cf) == Rational(2, 7)

    def test_one_third(self):
        cf = cf_strict(Rational(1, 3))
        assert cf.is_strict and cf_eval(cf) == Rational(1, 3)

    def test_hypothesis_violation(self):
        with pytest.raises(PreconditionViolated):
            cf_strict(Rational(3, 5))

    @given(st.integers(-40, 40), st.integers(3, 81))
    @settings(max_examples=400, deadline=None)
    def test_round_trip(self, num, den):
        if den % 2 == 0:
            den += 1
        q = Rational(num, den)
        if q == ZERO or q.den % 2 == 0 or 2 * abs(q.num) >= q.den:
            return
        cf = cf_strict(q)
        assert cf.is_strict
        assert cf_eval(cf) == q


class TestNormalize:
    def test_absorb_integer_part(self):
        e, slopes = montesinos_normalize(0, [Rational(5, 3), Rational(1, 2)])
        assert e == 1 and slopes == [Rational(2, 3), Rational(1, 2)]

    def test_already_normal(self):
        e, slopes = montesinos_normalize(2, [Rational(-1, 2)])
        assert e == 2 and slopes == [Rational(-1, 2)]

    def test_integer_slope_absorbed(self):
        e, slopes = montesinos_normalize(0, [Rational(7, 2)])
        assert e == 3 and slopes == [Rational(1, 2)]

    def test_rejects_infinite_slope(self):
        with pytest.raises(PreconditionViolated):
            montesinos_normalize(0, [INF])

    @given(st.integers(-3, 3),
           st.lists(st.tuples(st.integers(-15, 15), st.integers(1, 9)),
                    min_size=1, max_size=4))
    @settings(max_examples=300)
    def test_sum_preserved(self, e, raw):
        slopes = [Rational(n, d) for n, d in raw]
        e2, out = montesinos_normalize(e, slopes)
        before = Rational(e) + sum(slopes, ZERO)
        after = Rational(e2) + sum(out, ZERO)
        assert before == after
        for t in out:
            assert t.den > 1 and -t.den < t.num < t.den
