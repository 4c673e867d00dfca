"""Computable reals: approximation quality checked by exact rational algebra."""

import time
from fractions import Fraction

import pytest

from zecap import (
    CReal,
    InputError,
    add,
    decimal_string,
    from_rational,
    parse_real,
    root_pow2,
    sqrt_int,
)


def assert_brackets_sqrt(x: CReal, k: int, n: int) -> None:
    """Check |x.approx(n) - sqrt(k)| < 2^-n without floats: square both sides."""
    a = x.approx(n)
    eps = Fraction(1, 1 << n)
    lo, hi = a - eps, a + eps
    assert lo < hi
    assert lo < 0 or lo * lo < k
    assert hi > 0 and hi * hi > k


class TestSqrt:
    def test_perfect_squares_are_exact(self):
        for k in (0, 1, 4, 9, 144, 10**6):
            x = sqrt_int(k)
            assert x.exact is not None
            assert x.approx(100) == Fraction(round(k**0.5))

    def test_irrational_brackets(self):
        for k in (2, 3, 5, 7, 10, 999):
            x = sqrt_int(k)
            assert x.exact is None
            for n in (0, 1, 5, 20, 64):
                assert_brackets_sqrt(x, k, n)

    def test_approximants_are_deterministic(self):
        x = sqrt_int(5)
        assert x.approx(30) == x.approx(30)

    def test_bounds_straddle(self):
        x = sqrt_int(5)
        for n in (1, 10, 40):
            lo, hi = x.lower_bound(n), x.upper_bound(n)
            assert lo * lo < 5 < hi * hi

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            sqrt_int(-1)
        with pytest.raises(InputError, match="precision"):
            sqrt_int(5).approx(-1)


class TestRootPow2:
    def test_level_zero_is_identity(self):
        assert root_pow2(7, 0).approx(10) == 7

    def test_perfect_powers_exact(self):
        assert root_pow2(16, 2).approx(5) == 2  # 16^(1/4)
        assert root_pow2(256, 3).approx(5) == 2  # 256^(1/8)
        assert root_pow2(5**4, 2).approx(5) == 5

    def test_fourth_root_bracket(self):
        # |a - 5^(1/4)| < 2^-n  iff  (a-eps)^4 < 5 < (a+eps)^4 near the root
        x = root_pow2(5, 2)
        for n in (2, 10, 40):
            a = x.approx(n)
            eps = Fraction(1, 1 << n)
            assert (a - eps) ** 4 < 5 < (a + eps) ** 4

    def test_consistency_with_nested_sqrt(self):
        quad = root_pow2(5, 2)
        a = quad.approx(50)
        assert_brackets_sqrt(sqrt_int(5), 5, 49)
        # a^2 should bracket sqrt(5): |a^2 - sqrt(5)| <= (2 sqrt(5)^(1/2)+eps) eps
        assert (a * a) ** 2 < 5 * (1 + Fraction(1, 1 << 20))
        assert (a * a) ** 2 > 5 * (1 - Fraction(1, 1 << 20))

    def test_zero_and_one_are_exact_at_any_level(self):
        # a Newton step from 2 once built 2^(2^m - 1) here: 67 ms at m = 24,
        # 16 times more for every 4 more levels
        start = time.perf_counter()
        for k in (0, 1):
            assert root_pow2(k, 64).exact == k
        assert time.perf_counter() - start < 0.1

    def test_rejects_bad_args(self):
        with pytest.raises(InputError):
            root_pow2(-2, 1)
        with pytest.raises(InputError):
            root_pow2(-1, 1)
        with pytest.raises(InputError):
            root_pow2(2, -1)


class TestArithmetic:
    def test_rational_fast_paths(self):
        x = add(from_rational("1/3"), from_rational("1/6"))
        assert x.exact == Fraction(1, 2)

    def test_sum_with_irrational_brackets(self):
        x = add(from_rational(1), sqrt_int(5))  # 1 + sqrt(5)
        for n in (1, 10, 40):
            a = x.approx(n)
            eps = Fraction(1, 1 << n)
            assert (a - eps - 1) ** 2 < 5 < (a + eps - 1) ** 2


class TestParsing:
    def test_rationals(self):
        assert parse_real("3/2").exact == Fraction(3, 2)
        assert parse_real("-7/4").exact == Fraction(-7, 4)
        assert parse_real("2.5").exact == Fraction(5, 2)
        assert parse_real("4").exact == 4

    def test_sqrt_forms(self):
        x = parse_real("sqrt(5)")
        assert_brackets_sqrt(x, 5, 20)
        assert parse_real("sqrt(9)").exact == 3

    def test_shifted_sqrt(self):
        x = parse_real("1+sqrt(5)")
        a = x.approx(30)
        eps = Fraction(1, 1 << 30)
        assert (a - eps - 1) ** 2 < 5 < (a + eps - 1) ** 2

    def test_whitespace_tolerated(self):
        assert parse_real(" 3/2 ").exact == Fraction(3, 2)
        x = parse_real("1 + sqrt( 5 )")
        assert "sqrt" in x.description

    def test_rejects_garbage(self):
        for bad in ("", "one", "sqrt(-1)", "1/0", "sqrt(x)"):
            with pytest.raises(InputError):
                parse_real(bad)


    def test_exponent_past_the_digit_limit_is_refused(self):
        assert parse_real("2.5e-3").exact == Fraction(1, 400)
        assert parse_real("1e4_0").exact == 10**40
        assert parse_real("1e4000").exact == 10**4000
        for bad in ("1e4301", "1E-4301", "1e4_301", " 1e0004301 ", "1e" + "9" * 5000):
            with pytest.raises(InputError, match="too many digits"):
                parse_real(bad)


class TestDecimalString:
    def test_terminating(self):
        assert decimal_string(Fraction(5, 2)) == "2.5"
        assert decimal_string(Fraction(3)) == "3"
        assert decimal_string(Fraction(-1, 4)) == "-0.25"

    def test_truncation(self):
        assert decimal_string(Fraction(1, 3)) == "0.333333333333"

    def test_remainder_below_the_last_place_keeps_its_zeros(self):
        assert decimal_string(Fraction(10**13 + 1, 10**13)) == "1.000000000000"
        assert decimal_string(-Fraction(1, 10**20)) == "-0.000000000000"

    def test_matches_sqrt5(self):
        a = sqrt_int(5).approx(60)
        assert decimal_string(a) == "2.236067977499"
