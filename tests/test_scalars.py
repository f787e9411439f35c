"""Angle arithmetic: wrapping, integrality splits, deterministic sums."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from deligne._scalars import (
    TWO_PI,
    coerce,
    exceeds,
    full_turn,
    group_sums,
    integer_residual,
    nearest_integer,
    wrap,
    wrap_distance,
    zero,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=97
)
angles = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


def test_exceeds_tolerance_rule():
    # Exact residuals breach when nonzero, whatever tol says.
    assert not exceeds(Fraction(0), 1e-9, True)
    assert exceeds(Fraction(1, 10**12), 1e-9, True)
    # Float residuals breach above tol; NaN always breaches.
    assert not exceeds(1e-9, 1e-9, False)
    assert exceeds(2e-9, 1e-9, False)
    assert exceeds(math.nan, 1e-9, False)
    assert exceeds(math.nan, math.inf, False)


def test_full_turn_units():
    assert full_turn(True) == Fraction(1)
    assert full_turn(False) == TWO_PI == 2.0 * math.pi


def test_zero_matches_mode():
    assert zero(True) == Fraction(0) and isinstance(zero(True), Fraction)
    assert zero(False) == 0.0 and isinstance(zero(False), float)


def test_coerce_exact_accepts_rationals_and_strings():
    assert coerce(3, True) == Fraction(3)
    assert coerce("3/4", True) == Fraction(3, 4)
    assert coerce(Fraction(-2, 5), True) == Fraction(-2, 5)


def test_coerce_exact_rejects_floats():
    with pytest.raises(TypeError):
        coerce(0.5, True)


@pytest.mark.parametrize("spelled", ["3", "-3/4", "+2/6", "0/5"])
def test_coerce_exact_reads_the_writers_spelling(spelled):
    assert coerce(spelled, True) == Fraction(spelled)


@pytest.mark.parametrize(
    "bad", ["1e5", "1e10000000", "0.5", " 3/4", "1/2/3", "1_0/3", "", "1/0", "-3/00"]
)
def test_coerce_exact_refuses_other_spellings(bad):
    with pytest.raises(ValueError):
        coerce(bad, True)


@pytest.mark.parametrize("bad", [" 3/4", "1/2/3", "1_0/3", "1e5/3", "0.5/2", "1/0"])
def test_coerce_float_mode_reads_fractions_in_the_same_spelling(bad):
    assert coerce("-3/4", False) == -0.75
    with pytest.raises(ValueError):
        coerce(bad, False)


@pytest.mark.parametrize("big", [10**400, "1" + "0" * 400 + "/1"])
def test_coerce_float_mode_refuses_values_too_large_for_a_float(big):
    with pytest.raises(ValueError):
        coerce(big, False)


def test_coerce_float_mode_flattens():
    assert coerce(Fraction(1, 2), False) == 0.5
    assert coerce("2.5", False) == 2.5
    assert isinstance(coerce(1, False), float)


def test_wrap_hand_values_float():
    assert wrap(3.0 * math.pi, False) == pytest.approx(math.pi)
    # the window is half open: both boundary representatives map to +T/2
    assert wrap(math.pi, False) == pytest.approx(math.pi)
    assert wrap(-math.pi, False) == pytest.approx(math.pi)
    assert wrap(0.25, False) == pytest.approx(0.25)


def test_wrap_hand_values_exact():
    assert wrap(Fraction(7, 4), True) == Fraction(-1, 4)
    assert wrap(Fraction(1, 2), True) == Fraction(1, 2)
    assert wrap(Fraction(-1, 2), True) == Fraction(1, 2)
    assert wrap(Fraction(-13), True) == Fraction(0)


@given(rationals)
def test_wrap_exact_lands_in_window(x):
    r = wrap(x, True)
    assert Fraction(-1, 2) < r <= Fraction(1, 2)
    assert (x - r).denominator == 1


@given(rationals, st.integers(min_value=-20, max_value=20))
def test_wrap_exact_ignores_whole_turns(x, n):
    assert wrap(x + n, True) == wrap(x, True)


@given(angles)
def test_wrap_float_idempotent_and_in_window(x):
    r = wrap(x, False)
    assert -math.pi - 1e-12 < r <= math.pi + 1e-12
    assert wrap(r, False) == pytest.approx(r, abs=1e-12)


def test_wrap_distance_symmetric_and_modular():
    a, b = 0.3, 0.3 + 6 * math.pi
    assert wrap_distance(a, b, False) == pytest.approx(0.0, abs=1e-12)
    assert wrap_distance(a, b, False) == wrap_distance(b, a, False)
    assert wrap_distance(Fraction(1, 3), Fraction(-2, 3), True) == Fraction(0)


@given(rationals, rationals)
def test_wrap_distance_exact_bounds(a, b):
    d = wrap_distance(a, b, True)
    assert Fraction(0) <= d <= Fraction(1, 2)
    assert d == wrap_distance(b, a, True)


def test_nearest_integer_both_modes():
    assert nearest_integer(2.7) == 3
    assert nearest_integer(-2.7) == -3
    assert nearest_integer(Fraction(7, 2)) == 4  # ties to even
    assert nearest_integer(Fraction(5, 2)) == 2


def test_integer_residual_float():
    n, r = integer_residual(3 * TWO_PI + 0.125, False)
    assert n == 3
    assert r == pytest.approx(0.125, abs=1e-12)


def test_integer_residual_exact():
    n, r = integer_residual(Fraction(-7, 3), True)
    assert n == -2
    assert r == Fraction(1, 3)
    n, r = integer_residual(Fraction(4), True)
    assert (n, r) == (4, Fraction(0))


@given(rationals)
def test_integer_residual_exact_reconstructs(x):
    n, r = integer_residual(x, True)
    assert abs(x - n) == r
    assert r <= Fraction(1, 2)


def test_tree_sum_empty_is_typed_zero():
    (total,) = group_sums([[]], True)
    assert total == Fraction(0)
    assert isinstance(total, Fraction)
    assert group_sums([[]], False) == [0.0]


def test_tree_sum_float_order_independent():
    vals = [0.1] * 10 + [1e16, -1e16, 0.3, -0.7]
    forward, backward = group_sums([vals, list(reversed(vals))], False)
    assert forward == backward


@given(st.lists(rationals, max_size=30))
def test_tree_sum_exact_is_plain_sum(vals):
    assert group_sums([vals], True) == [sum(vals, Fraction(0))]
