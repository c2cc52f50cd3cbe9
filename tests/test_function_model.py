import json
import math

import mpmath
import numpy as np
import pytest

from fraclamb import (
    CallableFunction,
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
    solve_classic,
    solve_ndim,
    solve_power,
    solve_problem,
)
from fraclamb.fractional_ops import derivative_view
from fraclamb.forward_verifier import ResidualReport
from fraclamb.function_model import (_DIRECT_BLOCK, _PANEL_CHECK, _PANEL_CHECKS, _PANEL_CHOP,
                                     BUILTIN_ORDER, _checked_series, _hermite_coeffs, _horner,
                                     _logistic_poly, _sigmoid, check_finite)
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
              ShiftedGaussian(1e-3, 0.2), ShiftedGaussian(5.0, 0.0), ShiftedGaussian(100.0, 0.4),
              ShiftedGaussian(1e6, -2.0)):
        for t in ts:
            L = f.c + f.sigma * t
            assert f.tail_bound(L) == _shifted_gaussian_bound_per_call(f, L)
    # sigma^(-k) overflows: the constructor accepts it, and every tail_bound
    # call raises, as the per-call formula does.
    tiny = ShiftedGaussian(1e-200, 0.0)
    for _ in range(2):
        with pytest.raises(OverflowError):
            tiny.tail_bound(-1.0)


def test_gaussian_tail_terms_are_log_convex_in_the_order():
    # Why ShiftedGaussian.tail_bound keeps only orders 0 and K+1: the log of
    # each factor of the bound on |f^(k)|, the scale sigma^(-k) sum|He_k|
    # and the flat envelope k^(k/2) e^(-k/2), is convex in k (left of its
    # peak the envelope |t|^k e^(-t^2/2) is log-linear in k), so their
    # product is largest at an end of 0 <= k <= K+1.
    ks = np.arange(BUILTIN_ORDER + 2)
    involutions = [float(np.abs(_hermite_coeffs(k)).sum()) for k in ks]
    assert involutions == [1, 1, 2, 4, 10, 26, 76, 232, 764, 2620]
    for sigma in (1e-3, 0.05, 1.0, 5.0, 100.0, 1e6, 1e150):
        log_scale = -ks * math.log(sigma) + np.log(involutions)
        assert np.all(np.diff(log_scale, 2) >= -1e-12 * np.max(np.abs(log_scale))), sigma
    log_flat = [k / 2.0 * math.log(k) - k / 2.0 if k else 0.0 for k in ks]
    assert np.all(np.diff(log_flat, 2) > 0.0)


def _shifted_gaussian_guess_per_term(f, log_eps):
    """The cutoff guess from every order k <= K+1: the largest per-term
    crossing, a term solved only where it still exceeds eps there."""
    s = 0.0
    for k in reversed(range(f.derivative_order + 2)):
        scale = f.sigma ** (-k) * float(np.abs(_hermite_coeffs(k)).sum())
        peak = max(1.0, math.sqrt(k) if k else 1.0)
        log_flat = math.log(max(1.0, k ** (k / 2.0) * math.exp(-k / 2.0) if k else 1.0))
        R = (math.log(scale) if scale else -math.inf) - log_eps
        if (0.5 * s * s - k * math.log(s) >= R) if s >= peak else (log_flat <= -R):
            continue
        s = peak
        if 0.5 * s * s - k * math.log(s) < R:
            s = math.sqrt(max(2.0 * R, peak * peak)) + 1.0
            for _ in range(6):
                s -= (0.5 * s * s - k * math.log(s) - R) / (s - k / s)
    return None if s == 0.0 else f.c - f.sigma * s


def test_gaussian_cutoff_guess_matches_the_per_term_guess():
    # Up to sigma = 10 the two-crossing guess is the per-term one bit for
    # bit. Above, order 0 decides, and its closed-form sqrt(-2 log eps) may
    # be one ulp off 6 Newton steps (c = 0 and a power-of-two sigma make an
    # ulp of the guess an ulp of the crossing).
    log_eps = [math.log(eps) for eps in 10.0 ** -np.arange(-3.0, 308.0)]
    for f in (ShiftedGaussian(1e-3, 0.2), ShiftedGaussian(0.05, 0.0), ShiftedGaussian(0.5, 1.0),
              ShiftedGaussian(1.0, 0.0), ShiftedGaussian(2.0, -0.3), ShiftedGaussian(5.0, 0.0),
              ShiftedGaussian(10.0, 0.7)):
        for le in log_eps:
            assert f._cutoff_guess(le) == _shifted_gaussian_guess_per_term(f, le), (f.label, le)
    for f in (ShiftedGaussian(64.0, 0.0), ShiftedGaussian(2.0 ** 20, 0.0),
              ShiftedGaussian(2.0 ** 500, 0.0)):
        for le in log_eps:
            got, want = f._cutoff_guess(le), _shifted_gaussian_guess_per_term(f, le)
            assert (got is None) == (want is None), (f.label, le)
            assert want is None or abs(got - want) <= math.ulp(want), (f.label, le)


def _full_bisection(f, epsilon):
    """effective_lower_cutoff with all 60 bisection steps, for reference."""

    def bound(L):
        try:
            return f.tail_bound(L)
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


def _outcome(cutoff, f, eps):
    try:
        return cutoff(f, eps)
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
    """(wrapper, its tail bound) for each wrapper that scales f's bound, the
    bound as the formula it stands for."""
    out = [(derivative_view(f, k), f.tail_bound) for k in (1, 3)]
    for spec, c in _SOLUTIONS:
        out.append((solve_problem(spec, f), lambda L, c=c: 4.0 * abs(c) * f.tail_bound(L)))
    out.append((materialize(f, decay_like=f, decay_scale=4.0), lambda L: 4.0 * f.tail_bound(L)))
    return out


def _decay_factor(f, L):
    """The exponential factor of a built-in's tail bound at L: e^(lam L), or
    e^(-t^2/2) for t = (L - c) / sigma < 0 and 1 right of c."""
    if isinstance(f, ShiftedGaussian):
        t = (L - f.c) / f.sigma
        return math.exp(-0.5 * t * t) if t < 0 else 1.0
    return math.exp(f.lam * L)


def test_effective_lower_cutoff_matches_full_bisection(family):
    # A closed-form guess is kept once the bound accepts it, so it need not
    # be the search's own float. Every guessed L must satisfy bound(L) <= eps
    # and lie within 1e-12 max(1, |L|) of the search's, wherever the bound's
    # exponential factor there is a normal float and the bound reads differently at the
    # two points. Where e^(-t^2/2) is subnormal the float bound steps far
    # wider than an ulp of L and need not be monotone; where it reads the
    # same, the two are equally good (Exponential(1e-17) at eps = 1: the
    # guess 0 is the exact crossing, and e^(1e-17 L) rounds to 1 up to
    # L = 11.1, where the search stops). Exceptions are the search's, and a
    # function without a guess takes the search itself.
    tiny = np.finfo(float).tiny
    bases = family + [
        Exponential(1e-3), GaussTail(0.5, -1.0), ShiftedGaussian(0.5, 1.0),
        ShiftedGaussian(1e-3, 0.2),
    ]
    # No decay before 2^60, an overflowing constant, and sigma^(-k)
    # overflowing or underflowing.
    degenerate = [Exponential(1e-17), GaussTail(1e300), ShiftedGaussian(1e-200),
                  ShiftedGaussian(1e150)]
    cases = [(f, f) for f in bases + degenerate]
    cases += [(f, w) for f in bases for w, _ in _wrappers(f)]
    combo = combination(2.0, GaussTail(2.0, 0.7), -0.5, ShiftedGaussian(2.0, -0.3))
    cases.append((None, combo))
    moved = 0
    for base, f in cases:
        for eps in (1e3, 1.0, 1e-3, 1e-8, 1e-12, 1e-30, 1e-300, *10.0 ** -np.arange(5, 300, 11)):
            got = _outcome(effective_lower_cutoff, f, eps)
            want = _outcome(_full_bisection, f, eps)
            if base is None or isinstance(want, tuple):
                assert got == want, (f.label, eps)
                continue
            assert f.tail_bound(got) <= eps, (f.label, eps)
            if _decay_factor(base, want) >= tiny and f.tail_bound(got) != f.tail_bound(want):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(got)), (f.label, eps)
                moved += got != want
    assert moved > 1000  # the guesses do move off the search's float


@pytest.mark.parametrize("eps", [0.0, -1e-12, math.nan])
def test_effective_lower_cutoff_refuses_a_non_positive_epsilon(eps):
    with pytest.raises(DomainError):
        effective_lower_cutoff(Exponential(1.0), eps)


def test_wrapper_bounds_match_their_formulas(family):
    grid = [*np.linspace(-800.0, 50.0, 171), -1e-300, 0.0, 1e-300]
    for f in family + [GaussTail(0.5, -1.0), ShiftedGaussian(0.5, 1.0)]:
        for g, tail in _wrappers(f):
            for L in grid:
                assert g.tail_bound(L) == tail(L), (g.label, L)


def _counted(f):
    """f whose tail_bound calls are counted in f.calls."""
    f.calls = 0

    def counted(L, bound=f.tail_bound):
        f.calls += 1
        return bound(L)
    f.tail_bound = counted
    return f


def test_effective_lower_cutoff_inverts_builtin_bounds_in_closed_form():
    # Wherever a built-in or a wrapper of one has a closed-form guess, the
    # guess or one retry a few ulps left of it passes the bound: a call
    # costs at most 2 bound evaluations, not the ~59 of the walk and
    # bisection. Excluded: cutoffs where the bound's exponential factor is
    # subnormal, whose float steps are far wider than an ulp of L, so the
    # search runs there.
    tiny = np.finfo(float).tiny
    fast = 0
    for base in (Exponential(1.0), Exponential(2.0), Exponential(1e-3), GaussTail(1.0, 0.0),
                 GaussTail(0.5, -1.0), ShiftedGaussian(1.0, 0.0), ShiftedGaussian(0.5, 1.0)):
        f = _counted(base)
        views = [f, derivative_view(f, 1), derivative_view(f, 3)]
        views += [solve_problem(spec, f) for spec, _ in _SOLUTIONS]
        for g in views:
            for eps in 10.0 ** -np.arange(-3, 301):
                if g._cutoff_guess(math.log(eps)) is None:
                    continue
                f.calls = 0
                L = effective_lower_cutoff(g, eps)
                calls = f.calls
                if _decay_factor(base, L) >= tiny:
                    assert calls <= 2, (g.label, eps, calls)
                    fast += 1
    assert fast > 14500
    # Without a closed form, a combination keeps the search.
    term = _counted(GaussTail(2.0, 0.7))
    combo = combination(2.0, term, -0.5, ShiftedGaussian(2.0, -0.3))
    for eps in (1e-8, 1e-12, 1e-30):
        term.calls = 0
        assert effective_lower_cutoff(combo, eps) == _full_bisection(combo, eps)
        assert term.calls > 2 * 52  # this call's and the reference's bisections


def test_tail_bounds_cover_every_derivative():
    # The contract every truncation rests on: left of L, tail_bound(L) bounds
    # |f^(k)| for every analytic order k, |f| (k = 0) included. The bound
    # holds for exact values; evaluating f rounds a few ulps.
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


@pytest.mark.parametrize("xs, values, message", [
    ([0.0, 1.0, 2.0], [1.0, np.nan, np.inf], "f: non-finite value nan at x = 1"),
    (0.1, [1.0, 2.0, -np.inf], "f: non-finite value -inf at x = 0.10000000000000001"),
    ([[0.5], [1.5]], [np.inf, 1.0], "f: non-finite value inf at x = 0.5"),
])
def test_check_finite_names_the_first_bad_point(xs, values, message):
    # xs and values broadcast against each other, as the scalar x of one
    # value against a batch of them.
    check_finite("f", xs, np.nan_to_num(values))
    with pytest.raises(FracLambError) as info:
        check_finite("f", xs, values)
    assert str(info.value) == message
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


# ---------------------------------------------------------------------------
# Grid panels for quadrature-valued solutions
# ---------------------------------------------------------------------------

def _recorded(u):
    """u behind a wrapper that keeps a copy of every array it is read at,
    and the list of them."""
    reads = []

    def evaluate(x):
        reads.append(np.array(x, dtype=float))
        return u.evaluate(x)

    wrapped = CallableFunction(evaluate, label=u.label)
    wrapped.quadrature_valued = True
    return wrapped, reads


def _panels_read_directly(u, grid):
    """Each unit panel's grid values as u gives them in one call per panel."""
    nodes, want = grid.nodes, np.empty(grid.values.size)
    panel = np.floor(nodes)
    for k in np.unique(panel):
        want[panel == k] = u.evaluate(nodes[panel == k])
    return want


def _panel_series(u, lo, hi):
    """_checked_series of u on the panel part [lo, hi], as sample calls it."""
    checks = lo + (_PANEL_CHECKS + 1.0) * (0.5 * (hi - lo))
    return _checked_series(u.evaluate, lo, hi, checks, _PANEL_CHOP, _PANEL_CHECK)


def test_grid_value_does_not_depend_on_the_window():
    # Both windows have step 0.001 exactly. Their series on [-3.75, -3] and
    # [-3, -2] are the same: the first panel is cut by both windows at
    # -3.75, the second lies inside both. [-2, -1) is cut at -1.75 by the
    # short window only. One Weyl batch over each whole window would take
    # its cutoff from a larger max|f'| in the wide one.
    u = solve_classic(GaussTail(1.1, 0.2))
    short, wide = sample(u, -3.75, -1.75, 2001), sample(u, -3.75, 0.25, 4001)
    assert short.x_step == wide.x_step
    shared = short.nodes < -2.0
    assert np.array_equal(short.values[shared], wide.values[:2001][shared])


@pytest.mark.parametrize("solve, const, nu", [
    (solve_classic, 2.0 / math.sqrt(math.pi), 0.5),
    (lambda f: solve_power(f, 3), 1.0 / gamma(4.0 / 3.0), 1.0 / 3.0),
    (lambda f: solve_ndim(f, 3), math.pi ** -1.5, 1.5),
], ids=["classic", "power_m3", "ndim_n3"])
def test_panel_route_is_no_less_accurate_than_the_direct_one(solve, const, nu):
    u = solve(Exponential(1.5))
    grid = sample(u, -3.0, 1.5, 2001)
    exact = const * 1.5 ** nu * np.exp(1.5 * grid.nodes)
    panel_error = np.max(np.abs(grid.values - exact) / exact)
    direct_error = np.max(np.abs(u(grid.nodes) - exact) / exact)
    # Each panel takes its cutoff from its own scale, not the window's.
    assert panel_error < direct_error


@pytest.mark.parametrize("b", [0.25, 2.0])
def test_steep_panel_is_no_less_accurate_than_the_direct_route(b):
    # |u| spans e^5 on [0, 0.25] and e^20 on [0, 1]: a series would lose
    # that factor in relative accuracy at the panel's low end, so both
    # panels are read directly. On [0, 2] each panel is its own batch,
    # where one batch over the window takes its cutoff from e^40.
    u = solve_classic(Exponential(20.0))
    grid = sample(u, 0.0, b, 301)
    exact = 2.0 / math.sqrt(math.pi) * math.sqrt(20.0) * np.exp(20.0 * grid.nodes)
    panel_error = np.max(np.abs(grid.values - exact) / exact)
    direct_error = np.max(np.abs(u(grid.nodes) - exact) / exact)
    # Each series resolves and passes its check; the range rule declines it.
    assert _panel_series(u, 0.0, min(b, 1.0)) is not None
    assert np.array_equal(grid.values, _panels_read_directly(u, grid))
    assert panel_error <= direct_error
    assert panel_error < 1e-13


def test_panel_where_f_changes_sign_keeps_its_series():
    # |e^x - 2| at the Chebyshev points of [0, 1] spans a factor 277, down
    # to 3.6e-3 next to its zero at ln 2; no route is relatively accurate
    # at a zero, so the series stands.
    u = CallableFunction(lambda x: np.exp(x) - 2.0)
    u.quadrature_valued = True
    grid = sample(u, 0.0, 1.0, 1001)
    assert not np.array_equal(grid.values, _panels_read_directly(u, grid))
    assert np.max(np.abs(grid.values - (np.exp(grid.nodes) - 2.0))) < 1e-14


def test_sample_never_reads_outside_the_window():
    # The panels [-1, 0) and [0, 1) reach past both ends of the window.
    u, reads = _recorded(solve_classic(Exponential(1.5)))
    grid = sample(u, -0.6, 0.45, 1001)
    assert len(reads) == 2
    assert min(r.min() for r in reads) == grid.nodes[0]
    assert max(r.max() for r in reads) == grid.nodes[-1]


def test_unresolved_panel_is_read_directly():
    # Degree 128 cannot resolve 2 + sin(400 x) on a unit panel.
    u = CallableFunction(lambda x: 2.0 + np.sin(400.0 * x))
    u.quadrature_valued = True
    grid = sample(u, 0.0, 1.0, 1001)
    assert _panel_series(u, 0.0, 1.0) is None
    assert np.array_equal(grid.values, _panels_read_directly(u, grid))


def test_panel_that_fails_its_check_is_read_directly():
    # e^x plus a term that vanishes at the Chebyshev points of [0, 1) and
    # is 1e-6 between them: the series resolves, the check catches it.
    def off_nodes(x, amplitude):
        return np.exp(x) + amplitude * np.sin(128.0 * np.arccos(2.0 * x - 1.0))

    u, exact = (CallableFunction(lambda x, a=a: off_nodes(x, a)) for a in (1e-6, 0.0))
    u.quadrature_valued = exact.quadrature_valued = True
    grid = sample(u, 0.0, 1.0, 1001)
    assert _panel_series(exact, 0.0, 1.0) is not None
    assert _panel_series(u, 0.0, 1.0) is None
    assert np.array_equal(grid.values, _panels_read_directly(u, grid))


def test_panel_whose_series_read_raises_is_read_directly():
    # u raises at x = 0.5, the middle Chebyshev point of [0, 1] and no
    # grid point: the grid values are read directly, and all are finite.
    def evaluate(x):
        if np.any(x == 0.5):
            raise FracLambError("not finite at x = 0.5")
        return np.exp(x)

    u = CallableFunction(evaluate)
    u.quadrature_valued = True
    grid = sample(u, 0.0, 1.0, 1000)
    assert _panel_series(u, 0.0, 1.0) is None
    assert np.array_equal(grid.values, _panels_read_directly(u, grid))


def test_panel_whose_series_read_is_not_finite_is_read_directly():
    # u is NaN at x = 0.5, the middle Chebyshev point of [0, 1] and no
    # grid point: the series does not stand, and the grid is read directly.
    u = CallableFunction(lambda x: np.where(x == 0.5, np.nan, np.exp(x)))
    u.quadrature_valued = True
    grid = sample(u, 0.0, 1.0, 1000)
    assert _panel_series(u, 0.0, 1.0) is None
    assert np.array_equal(grid.values, _panels_read_directly(u, grid))
    assert np.isfinite(grid.values).all()


@pytest.mark.parametrize("evaluate, window, sizes", [
    # One point per panel: every node is on a sparse panel.
    (lambda x: np.exp(-x * 1e-17), (0.0, 1e21), [4096, 4096, 1809]),
    # One dense panel, whose series cannot resolve the kink at 0.5.
    (lambda x: np.exp(np.minimum(x, 0.5)), (0.0, 0.9), [133, 4096, 4096, 1809]),
], ids=["sparse", "failed_panel"])
def test_sample_reads_directly_in_chunks(evaluate, window, sizes):
    # More than _DIRECT_BLOCK nodes read directly: no call of u sees more
    # than _DIRECT_BLOCK of them, and an elementwise u's values do not
    # depend on the chunks.
    u, reads = _recorded(CallableFunction(evaluate))
    grid = sample(u, *window, 10001)
    assert [r.size for r in reads] == sizes
    assert np.array_equal(grid.values, evaluate(grid.nodes))


def test_sample_reads_no_more_than_twice_the_count():
    # Every dense panel resolves: 133 reads per panel, at most count.
    u, reads = _recorded(solve_classic(GaussTail(1.1, 0.2)))
    sample(u, -3.0, 1.5, 2001)
    assert sum(r.size for r in reads) <= 2001
    # Every dense panel falls back: its series and its points, at most 2 count.
    u, reads = _recorded(solve_classic(ShiftedGaussian(0.005)))
    sample(u, -0.5, 0.5, 1001)
    assert 1001 < sum(r.size for r in reads) <= 2 * 1001
    # u underflows to 0 on [-4, -3]: every coefficient is 0, coefficient 0
    # alone is kept, and the series stands without a direct read.
    u, reads = _recorded(solve_classic(ShiftedGaussian(0.05)))
    grid = sample(u, -4.0, -3.0, 1001)
    assert [r.size for r in reads] == [133, 1]
    assert not np.any(grid.values)
    # The CLI's default grid, 101 points on [-1, 1], has no dense panel.
    u, reads = _recorded(solve_classic(GaussTail(1.1, 0.2)))
    grid = sample(u, -1.0, 1.0, 101)
    assert [r.size for r in reads] == [101]
    assert np.array_equal(grid.values, u.evaluate(grid.nodes))
    # One point per panel: read directly, never a series per point, in
    # chunks of at most _DIRECT_BLOCK.
    u, reads = _recorded(CallableFunction(lambda x: np.exp(-x * 1e-17)))
    sample(u, 0.0, 2e17, 20001)
    sizes = [r.size for r in reads]
    assert max(sizes) <= _DIRECT_BLOCK and sum(sizes) == 20001
