import json
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
    PosDefMatrix,
    ProblemSpec,
    ShiftedGaussian,
    UnsupportedOrderError,
    effective_lower_cutoff,
    materialize,
    sample,
    solve_problem,
)
from fraclamb.fractional_ops import derivative_view
from fraclamb.forward_verifier import ResidualReport
from fraclamb.function_model import (BUILTIN_ORDER, _hermite_coeffs, _horner, _logistic_poly,
                                     _sigmoid)
from fraclamb.special_functions import gamma
from conftest import combination, read_csv, rel_error


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


def test_derivative_fallback_gating(family):
    # One order rule: derivatives are analytic up to derivative_order and
    # refused above it, by derivative and derivative_view alike.
    plain = materialize(lambda x: np.exp(x))
    with pytest.raises(UnsupportedOrderError):
        plain.derivative(1, 0.0)
    for f in family:
        top = f.derivative(BUILTIN_ORDER, 0.3)
        assert math.isfinite(top) and derivative_view(f, BUILTIN_ORDER)(0.3) == top
        with pytest.raises(UnsupportedOrderError):
            f.derivative(BUILTIN_ORDER + 1, 0.3)
        with pytest.raises(UnsupportedOrderError):
            derivative_view(f, BUILTIN_ORDER + 1)


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


# The tail bounds as they were evaluated before their per-order constants
# were computed once per instance: every value must stay bit for bit.
def _gauss_tail_bound_per_call(f, L):
    worst = max(
        f.lam ** k * float(np.abs(_logistic_poly(k)).sum())
        for k in range(f.derivative_order + 2)
    )
    return worst * math.exp(f.lam * L)


def _shifted_gaussian_bound_per_call(f, L):
    t = (float(L) - f.c) / f.sigma
    worst = 0.0
    for k in range(f.derivative_order + 2):
        hk = float(np.abs(_hermite_coeffs(k)).sum())
        peak = max(1.0, math.sqrt(k) if k else 1.0)
        if t <= -peak:
            envelope = abs(t) ** k * math.exp(-0.5 * t * t)
        else:
            envelope = max(1.0, k ** (k / 2.0) * math.exp(-k / 2.0) if k else 1.0)
        worst = max(worst, f.sigma ** (-k) * hk * envelope)
    return worst


def test_tail_bounds_match_per_call_formulas():
    for f in (GaussTail(1.0, 0.0), GaussTail(0.5, -1.0), GaussTail(2.0, 0.7)):
        for L in [*np.linspace(-300.0, 300.0, 121), -1e-300, 0.0, 1e-300]:
            assert f.tail_bound(L) == _gauss_tail_bound_per_call(f, L)
    # Both sides of every switch t = -max(1, sqrt(k)), the deep tail where
    # e^(-t^2/2) underflows, and L right of the centre.
    switches = [-max(1.0, math.sqrt(k)) for k in range(BUILTIN_ORDER + 2)]
    ts = [*np.linspace(-12.0, 4.0, 161), -38.0, -40.0, -1e3, -1e20]
    for t in switches:
        ts += [t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf), t - 1e-9, t + 1e-9]
    for f in (ShiftedGaussian(1.0, 0.0), ShiftedGaussian(0.5, 1.0), ShiftedGaussian(2.0, -0.3),
              ShiftedGaussian(1e-3, 0.2)):
        for t in ts:
            L = f.c + f.sigma * t
            assert f.tail_bound(L) == _shifted_gaussian_bound_per_call(f, L)
    # sigma^(-k) overflows: the constructor accepts it, and every tail_bound
    # call raises, as the per-call formula does.
    tiny = ShiftedGaussian(1e-200, 0.0)
    for _ in range(2):
        with pytest.raises(OverflowError):
            tiny.tail_bound(-1.0)


def _full_bisection(f, epsilon, value_only):
    """effective_lower_cutoff with all 60 bisection steps, for reference."""
    raw_bound = f.value_tail_bound if value_only else f.tail_bound

    def bound(L):
        try:
            return raw_bound(L)
        except OverflowError:
            return math.inf

    if bound(0.0) > epsilon:
        lo, hi, step = -1.0, 0.0, 1.0
        while bound(lo) > epsilon:
            hi = lo
            lo -= step
            step *= 2.0
            if step > 2.0 ** 60:
                raise NoDecayError(f"{f.label}: tail bound never fell below {epsilon}")
    else:
        lo, hi = 0.0, 1.0
        for _ in range(64):
            if bound(hi) > epsilon:
                break
            lo = hi
            hi *= 2.0
        else:
            return lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if bound(mid) <= epsilon:
            lo = mid
        else:
            hi = mid
    return lo


def _outcome(cutoff, f, eps, value_only):
    try:
        return cutoff(f, eps, value_only)
    except NoDecayError as exc:
        return type(exc), str(exc)


# Each built-in's solution under the four variants, with the constant c of
# u = c D^nu f that its tail bound 4 |c| tail_bound(f) is scaled by.
_A = PosDefMatrix([[2.0, 0.5], [0.5, 1.0]])
_SOLUTIONS = [
    (ProblemSpec(variant="classic"), 2.0 / math.sqrt(math.pi)),
    (ProblemSpec(variant="symmetric_ndim", n=3), math.pi ** -1.5),
    (ProblemSpec(variant="power", m=3), 1.0 / gamma(1.0 + 1.0 / 3)),
    (ProblemSpec(variant="quadform", A=_A), math.sqrt(_A.det) * math.pi ** -1.0),
]


def _wrappers(f):
    """(wrapper, its tail bound, its value bound) for each wrapper that
    scales f's bounds, the two bounds as the formulas they stand for."""
    out = [(derivative_view(f, k), f.tail_bound, f.tail_bound) for k in (1, 3)]
    for spec, c in _SOLUTIONS:
        scaled = lambda L, c=c: 4.0 * abs(c) * f.tail_bound(L)
        out.append((solve_problem(spec, f), scaled, scaled))
    out.append((materialize(f, decay_like=f, decay_scale=4.0),
                lambda L: 4.0 * f.tail_bound(L), lambda L: 4.0 * f.value_tail_bound(L)))
    return out


def test_effective_lower_cutoff_matches_full_bisection(family):
    bases = family + [
        Exponential(1e-3), GaussTail(0.5, -1.0), ShiftedGaussian(0.5, 1.0),
        ShiftedGaussian(1e-3, 0.2),
    ]
    functions = bases + [w for f in bases for w, _, _ in _wrappers(f)] + [
        combination(2.0, GaussTail(2.0, 0.7), -0.5, ShiftedGaussian(2.0, -0.3)),
        # No decay before 2^60, an overflowing constant, and sigma^(-k)
        # overflowing or underflowing.
        Exponential(1e-17), GaussTail(1e300), ShiftedGaussian(1e-200), ShiftedGaussian(1e150),
    ]
    for f in functions:
        for eps in (1e3, 1.0, 1e-3, 1e-8, 1e-12, 1e-30, 1e-300):
            for value_only in (False, True):
                assert _outcome(effective_lower_cutoff, f, eps, value_only) == \
                    _outcome(_full_bisection, f, eps, value_only)


def test_wrapper_bounds_match_their_formulas(family):
    grid = [*np.linspace(-800.0, 50.0, 171), -1e-300, 0.0, 1e-300]
    for f in family + [GaussTail(0.5, -1.0), ShiftedGaussian(0.5, 1.0)]:
        for g, tail, value in _wrappers(f):
            for L in grid:
                assert g.tail_bound(L) == tail(L), (g.label, L)
                assert g.value_tail_bound(L) == value(L), (g.label, L)


def _counted(f):
    """f whose tail_bound and value_tail_bound calls are counted in f.calls."""
    f.calls = 0
    for name in ("tail_bound", "value_tail_bound"):
        def counted(L, bound=getattr(f, name)):
            f.calls += 1
            return bound(L)
        setattr(f, name, counted)
    return f


def test_effective_lower_cutoff_inverts_builtin_bounds_in_closed_form():
    # Wherever the doubling walk would stop in [-2^58, -2], the closed-form
    # guess stands in for it: a call costs a handful of bound evaluations,
    # not the ~59 of the walk and bisection. Excluded: cutoffs where the
    # bound's exponential factor (the value bound) is subnormal, whose float
    # steps are far wider than an ulp of L, so the search runs there.
    tiny = np.finfo(float).tiny
    fast = 0
    for base in (Exponential(1.0), Exponential(2.0), Exponential(1e-3), GaussTail(1.0, 0.0),
                 GaussTail(0.5, -1.0), ShiftedGaussian(1.0, 0.0), ShiftedGaussian(0.5, 1.0)):
        f = _counted(base)
        views = [f, derivative_view(f, 1), derivative_view(f, 3)]
        views += [solve_problem(spec, f) for spec, _ in _SOLUTIONS]
        for g in views:
            for eps in 10.0 ** -np.arange(8, 301):
                for value_only in (False, True):
                    f.calls = 0
                    L = effective_lower_cutoff(g, eps, value_only)
                    calls = f.calls
                    if -2.0 ** 58 <= L <= -2.0 and base.value_tail_bound(L) >= tiny:
                        assert calls <= 8, (g.label, eps, value_only, calls)
                        fast += 1
    assert fast > 10000
    # Without a closed form, a combination keeps the search.
    term = _counted(GaussTail(2.0, 0.7))
    combo = combination(2.0, term, -0.5, ShiftedGaussian(2.0, -0.3))
    for eps in (1e-8, 1e-12, 1e-30):
        term.calls = 0
        assert effective_lower_cutoff(combo, eps) == _full_bisection(combo, eps, False)
        assert term.calls > 2 * 52  # this call's and the reference's bisections


def test_tail_bounds_cover_every_derivative():
    # The contract every truncation rests on: left of L, tail_bound(L) bounds
    # |f^(k)| for every analytic order k and value_tail_bound(L) bounds |f|.
    # The bounds hold for exact values; evaluating f rounds a few ulps.
    rounding = 1.0 + 64.0 * np.finfo(float).eps
    functions = [
        Exponential(0.5), Exponential(1.0), Exponential(3.0),
        GaussTail(1.0, 0.0), GaussTail(0.5, -1.0), GaussTail(2.0, 0.7),
        ShiftedGaussian(1.0, 0.0), ShiftedGaussian(0.5, 1.0), ShiftedGaussian(2.0, -0.3),
    ]
    for f in functions:
        for L in (3.0, 0.0, -0.5, -1.0, -2.0, -5.0, -10.0, -30.0):
            xi = L - np.concatenate([[0.0], np.geomspace(1e-9, 40.0, 120)])
            worst = max(np.max(np.abs(f.derivative(k, xi))) for k in range(BUILTIN_ORDER + 1))
            assert worst <= f.tail_bound(L) * rounding, (f.label, L)
            assert np.max(np.abs(f(xi))) <= f.value_tail_bound(L) * rounding, (f.label, L)


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
    # 17 significant digits give back every node and value bit for bit.
    for f, a, b, count in ((Exponential(1.3), -1.0, 2.0, 11), (Exponential(1.0), -1.0, 1.0, 7)):
        grid = sample(f, a, b, count)
        back = read_csv(grid.to_csv())
        assert np.array_equal(back.values, grid.values)
        assert np.array_equal(back.nodes, grid.nodes)


def test_grid_function_json_round_trip():
    grid = sample(GaussTail(0.7, 0.2), -3.0, 0.0, 7)
    back = json.loads(grid.to_json())
    assert np.array_equal(back["values"], grid.values)
    assert (back["x_start"], back["x_step"]) == (grid.x_start, grid.x_step)


# ---------------------------------------------------------------------------
# The one-pass kernels give the floats of the formulas they replaced
# ---------------------------------------------------------------------------

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
           745.0, -745.0, 1e-300, -1e-300]


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def masked_sigmoid(t):
    """The masked logistic function the built-ins used before, as reference."""
    out = np.empty_like(t, dtype=float)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_sigmoid_matches_the_masked_formula_bit_for_bit():
    rng = np.random.default_rng(11)
    t = np.concatenate([SPECIAL, rng.standard_normal(4000) * 40.0, rng.uniform(-1e-3, 1e-3, 100)])
    for arr in (t, rng.permutation(t).reshape(30, -1)):
        assert np.array_equal(bits(_sigmoid(arr)), bits(masked_sigmoid(arr)))


@pytest.mark.filterwarnings("ignore:invalid value")  # inf * 0 in both
def test_horner_matches_polyval_bit_for_bit():
    rng = np.random.default_rng(12)
    inputs = [np.asarray(0.37), np.asarray(-2.5),
              np.concatenate([SPECIAL, rng.uniform(-6.0, 6.0, 251)]),
              rng.uniform(-6.0, 6.0, (33, 64))]
    for k in range(BUILTIN_ORDER + 2):
        for coeffs in (_logistic_poly(k), _hermite_coeffs(k)):
            for x in inputs:
                want = np.polynomial.polynomial.polyval(x, coeffs)
                assert np.array_equal(bits(_horner(x, coeffs)), bits(want))


@pytest.mark.filterwarnings("ignore:invalid value")
@pytest.mark.parametrize("f", [GaussTail(1.3, 0.4), ShiftedGaussian(0.7, -0.3)],
                         ids=["gauss_tail", "shifted_gaussian"])
def test_builtin_kernels_match_their_polyval_formulas(f):
    """Values and every derivative, bit for bit, against the expressions the
    built-ins evaluated before their kernels went in place."""
    polyval = np.polynomial.polynomial.polyval

    def reference(k, x):
        if isinstance(f, GaussTail):
            t = np.atleast_1d(f.lam * (x - f.c))
            scale = math.exp(f.lam * f.c) * f.lam ** k
            return (scale * polyval(masked_sigmoid(t), _logistic_poly(k))).reshape(np.shape(x))
        t = (x - f.c) / f.sigma
        gauss = np.exp(-0.5 * t * t)
        return gauss if k == 0 else (-1.0 / f.sigma) ** k * polyval(t, _hermite_coeffs(k)) * gauss

    rng = np.random.default_rng(13)
    inputs = [np.asarray(-0.8), np.concatenate([SPECIAL, rng.uniform(-8.0, 4.0, 301)]),
              rng.uniform(-8.0, 4.0, (17, 96))]
    for x in inputs:
        assert np.array_equal(bits(f.evaluate(x)), bits(reference(0, x)))
        for k in range(1, BUILTIN_ORDER + 1):
            assert np.array_equal(bits(f._analytic_derivative(k, x)), bits(reference(k, x)))


def test_csv_writers_match_the_row_by_row_formatter():
    special = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 1.0 / 3.0])
    grids = [GridFunction(-0.0, 0.25, special), GridFunction(1e308, 1e300, special[::-1]),
             sample(GaussTail(1.1, 0.2), -3.0, 1.0, 20001)]
    for grid in grids:
        want = "".join(["x,value\n"] + [f"{x:.17g},{v:.17g}\n"
                                         for x, v in zip(grid.nodes, grid.values)])
        assert grid.to_csv() == want

    rows = [tuple(np.roll(special, i)[:4].tolist()) for i in range(len(special))]
    report = ResidualReport((-1.0, 1.0), len(rows), 0.0, 0.0, rows)
    want = "".join(["x,f,forward,residual\n"] + [
        f"{x:.17g},{fx:.17g},{fwd:.17g},{res:.17g}\n" for x, fx, fwd, res in rows])
    assert report.to_csv() == want
