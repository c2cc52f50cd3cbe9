import math

import mpmath
import numpy as np
import pytest

from fraclamb import (
    DomainError,
    Exponential,
    FracLambError,
    GaussTail,
    GridFunction,
    NoDecayError,
    ShiftedGaussian,
    UnsupportedOrderError,
    effective_lower_cutoff,
    linear_combination,
    materialize,
    numeric_derivative,
    sample,
    zero_function,
)
from conftest import rel_error


def test_evaluate_matches_defining_expressions():
    xs = np.linspace(-3.0, 3.0, 7)
    f = Exponential(1.5)
    assert np.allclose(f(xs), np.exp(1.5 * xs), rtol=1e-15)
    g = GaussTail(2.0, 0.5)
    naive = np.exp(2.0 * xs) / (1.0 + np.exp(2.0 * (xs - 0.5)))
    assert np.allclose(g(xs), naive, rtol=1e-14)
    h = ShiftedGaussian(1.5, -1.0)
    assert np.allclose(h(xs), np.exp(-((xs + 1.0) ** 2) / (2.0 * 1.5 ** 2)), rtol=1e-15)


def test_gauss_tail_is_stable_far_right():
    g = GaussTail(1.0, 0.0)
    # The naive expression overflows past x ~ 710; the stable form saturates
    # at e^(lam c) = 1.
    assert g(800.0) == pytest.approx(1.0, rel=1e-12)


def test_derivative_zero_is_evaluate(family):
    xs = np.linspace(-2.0, 2.0, 9)
    for f in family:
        assert np.array_equal(f.derivative(0, xs), f(xs))


def test_invalid_parameters_rejected():
    with pytest.raises(DomainError):
        Exponential(0.0)
    with pytest.raises(DomainError):
        GaussTail(-1.0, 0.0)
    with pytest.raises(DomainError):
        ShiftedGaussian(0.0, 0.0)


@pytest.mark.parametrize("k", [5, 8])
def test_high_order_derivatives_match_mpmath(k):
    # The Hermite/logistic recurrences feed the tail bounds up to order K+1;
    # spot-check them against arbitrary-precision differentiation.
    for f, fn in [
        (GaussTail(1.0, 0.0), lambda t: mpmath.e ** t / (1 + mpmath.e ** t)),
        (ShiftedGaussian(1.0, 0.0), lambda t: mpmath.e ** (-t * t / 2)),
    ]:
        for x in (-1.0, 0.3, 1.7):
            want = float(mpmath.diff(fn, x, k))
            assert f.derivative(k, x) == pytest.approx(want, rel=1e-10, abs=1e-12)


# Step sizes matched to each member's derivative scale; finite differences
# cannot hold a relative target where |f^(k)| collapses against |f|.
_FD_CASES = [
    (Exponential(1.0), 0.03),
    (Exponential(2.0), 0.02),
    (GaussTail(1.0, 8.0), 0.03),
    (ShiftedGaussian(1.0, 0.0), 0.016),
]


@pytest.mark.parametrize("f,h", _FD_CASES, ids=lambda c: getattr(c, "label", c))
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_numeric_derivative_agrees_with_analytic(f, h, k):
    xs = np.linspace(-5.0, 5.0, 50)
    got, _ = numeric_derivative(f, k, xs, h=h)
    want = np.asarray(f.derivative(k, xs))
    assert rel_error(got, want, floor=1e-3) < 1e-6


def test_numeric_derivative_examples():
    value, err = numeric_derivative(Exponential(1.0), 1, 0.0)
    assert abs(value - 1.0) < 1e-8
    value, err = numeric_derivative(ShiftedGaussian(1.0, 0.0), 2, 0.0)
    assert abs(value - (-1.0)) < 1e-6
    value, err = numeric_derivative(Exponential(2.0), 0, 0.0)
    assert value == 1.0 and err == 0.0


def test_numeric_derivative_error_estimate_brackets_truth():
    f = Exponential(1.0)
    value, err = numeric_derivative(f, 2, 0.5, h=0.05)
    assert abs(value - math.exp(0.5)) < 10.0 * err + 1e-12


def test_numeric_derivative_order_cap():
    f = materialize(lambda x: np.exp(x), numeric_fallback=True)
    with pytest.raises(UnsupportedOrderError):
        numeric_derivative(f, 5, 0.0)
    with pytest.raises(DomainError):
        numeric_derivative(f, 1, 0.0, h=-1.0)


def test_derivative_fallback_gating():
    plain = materialize(lambda x: np.exp(x))
    with pytest.raises(UnsupportedOrderError):
        plain.derivative(1, 0.0)
    opted = materialize(lambda x: np.exp(x), numeric_fallback=True)
    assert opted.derivative(1, 0.0) == pytest.approx(1.0, rel=1e-7)


def test_effective_lower_cutoff_examples():
    # e^L <= eps solves to L = ln eps; the bound includes derivative factors
    # so the returned point can only be further left.
    L = effective_lower_cutoff(Exponential(1.0), 1e-12)
    assert L <= math.log(1e-12) + 1e-9
    L2 = effective_lower_cutoff(Exponential(2.0), 1e-12)
    assert L2 <= -13.815
    L3 = effective_lower_cutoff(ShiftedGaussian(1.0, 0.0), 1e-12)
    assert L3 <= -7.5


def test_effective_lower_cutoff_honors_bound(family):
    for f in family:
        for eps in (1e-6, 1e-12):
            L = effective_lower_cutoff(f, eps)
            assert f.tail_bound(L) <= eps
            # Derivatives at the cutoff are below the bound with slack.
            for k in range(f.derivative_order + 1):
                assert abs(f.derivative(k, L)) <= 10.0 * eps


def test_effective_lower_cutoff_without_decay():
    f = materialize(lambda x: np.ones_like(x))
    with pytest.raises(NoDecayError):
        effective_lower_cutoff(f, 1e-9)


def test_tail_bound_decreases_to_zero(family):
    for f in family:
        values = [f.tail_bound(L) for L in (0.0, -5.0, -10.0, -20.0, -40.0, -80.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-12


def test_sample_examples():
    grid = sample(Exponential(1.0), 0.0, 1.0, 2)
    assert np.array_equal(grid.values, np.exp([0.0, 1.0]))
    grid = sample(ShiftedGaussian(1.0, 0.0), -1.0, 1.0, 3)
    assert grid.values[0] == grid.values[2] == pytest.approx(math.exp(-0.5), rel=1e-15)
    assert grid.values[1] == 1.0


def test_sample_round_trip_is_bitwise(family):
    for f in family:
        grid = sample(f, -2.0, 2.0, 17)
        again = np.asarray(f(grid.nodes))
        assert np.array_equal(grid.values, again)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_sample_validation():
    f = Exponential(1.0)
    with pytest.raises(DomainError):
        sample(f, 1.0, 1.0, 5)
    with pytest.raises(DomainError):
        sample(f, 0.0, 1.0, 1)
    with pytest.raises(DomainError, match="width"):  # b - a overflows
        sample(f, -1e308, 1e308, 3)
    with pytest.raises(FracLambError, match="exp") as info:  # e^712 overflows
        sample(f, 700.0, 712.0, 3)
    assert not isinstance(info.value, DomainError)


def test_grid_function_node_relation_is_exact():
    g = GridFunction(x_start=-1.0, x_step=0.25, values=np.arange(9.0))
    assert np.array_equal(g.nodes, -1.0 + np.arange(9) * 0.25)


def test_grid_function_validation():
    with pytest.raises(DomainError):
        GridFunction(x_start=0.0, x_step=0.0, values=np.array([1.0]))
    with pytest.raises(DomainError):
        GridFunction(x_start=0.0, x_step=1.0, values=np.array([]))


def test_grid_function_csv_round_trip():
    # 17 significant digits make values and nodes bitwise, and the step is
    # recovered exactly from them.
    for f, a, b, count in ((Exponential(1.3), -1.0, 2.0, 11), (Exponential(1.0), -1.0, 1.0, 7)):
        grid = sample(f, a, b, count)
        back = GridFunction.from_csv(grid.to_csv())
        assert np.array_equal(back.values, grid.values)
        assert back.x_start == grid.x_start
        assert back.x_step == grid.x_step
        assert np.array_equal(back.nodes, grid.nodes)


def test_grid_function_json_round_trip():
    grid = sample(GaussTail(0.7, 0.2), -3.0, 0.0, 7)
    back = GridFunction.from_json(grid.to_json())
    assert np.array_equal(back.values, grid.values)
    assert (back.x_start, back.x_step) == (grid.x_start, grid.x_step)


def test_linear_combination_and_zero():
    f = Exponential(1.0)
    g = ShiftedGaussian(1.0, 0.0)
    combo = linear_combination([2.0, -0.5], [f, g])
    xs = np.linspace(-1.0, 1.0, 5)
    assert np.allclose(combo(xs), 2.0 * f(xs) - 0.5 * g(xs), rtol=1e-15)
    assert np.allclose(combo.derivative(2, xs),
                       2.0 * f.derivative(2, xs) - 0.5 * g.derivative(2, xs), rtol=1e-14)
    assert combo.tail_bound(-30.0) <= 2.0 * f.tail_bound(-30.0) + 0.5 * g.tail_bound(-30.0)

    z = zero_function()
    assert np.array_equal(z(xs), np.zeros_like(xs))
    assert z.tail_bound(-1000.0) == 0.0
