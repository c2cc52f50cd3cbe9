import math

import numpy as np
import pytest

from fraclamb import (
    CallableFunction,
    DomainError,
    Exponential,
    NotPositiveDefiniteError,
    PosDefMatrix,
    ProblemSpec,
    QuadratureConfig,
    UnsupportedOrderError,
    frac_derivative,
    linear_combination,
    materialize,
    solve_classic,
    solve_ndim,
    solve_power,
    solve_problem,
    solve_quadform,
    weyl_integral,
    zero_function,
)
from fraclamb.fractional_ops import derivative_view
from conftest import rel_error

CFG = QuadratureConfig()
SQRT_PI = math.sqrt(math.pi)

# 1 / Gamma(4/3), frozen from a 40-digit evaluation; certified again by the
# forward_power round trip in test_forward_verifier.
INV_GAMMA_4_3 = 1.1198465217221857


class TestPosDefMatrix:
    def test_identity(self):
        A = PosDefMatrix.identity(3)
        assert A.n == 3
        assert A.det == 1.0
        assert A.min_pivot == 1.0

    def test_cached_quantities(self):
        A = PosDefMatrix([[2.0, 1.0], [1.0, 2.0]])
        assert A.det == pytest.approx(3.0, rel=1e-12)
        assert np.allclose(A.factor @ A.factor.T, A.entries, rtol=1e-12)
        assert A.det == pytest.approx(float(np.prod(np.diag(A.factor) ** 2)), rel=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            PosDefMatrix([[1.0, 0.5], [0.4999, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            PosDefMatrix([[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_negligible_pivot(self):
        eps = 1e-16
        with pytest.raises(NotPositiveDefiniteError):
            PosDefMatrix([[1.0, 0.0], [0.0, eps]])

    def test_rejects_non_square(self):
        with pytest.raises(DomainError):
            PosDefMatrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


class TestProblemSpec:
    def test_variant_field_requirements(self):
        ProblemSpec(variant="classic")
        ProblemSpec(variant="symmetric_ndim", n=3)
        ProblemSpec(variant="power", m=2)
        ProblemSpec(variant="quadform", A=PosDefMatrix.identity(2))
        with pytest.raises(DomainError):
            ProblemSpec(variant="power")  # missing m
        with pytest.raises(DomainError):
            ProblemSpec(variant="quadform")  # missing A
        with pytest.raises(DomainError):
            ProblemSpec(variant="classic", m=2)  # stray field
        with pytest.raises(DomainError):
            ProblemSpec(variant="classic", n=3)  # classic is 1-D
        with pytest.raises(DomainError):
            ProblemSpec(variant="symmetric_ndim", n=0)
        with pytest.raises(DomainError):
            ProblemSpec(variant="bogus")

    def test_quadform_dimension_follows_matrix(self):
        spec = ProblemSpec(variant="quadform", A=PosDefMatrix.identity(3))
        assert spec.n == 3


def test_solve_classic_eigen_examples():
    xs = np.linspace(-2.0, 2.0, 9)
    u = solve_classic(Exponential(1.0), CFG)
    assert rel_error(u(xs), (2.0 / SQRT_PI) * np.exp(xs)) < 1e-9
    assert u(0.0) == pytest.approx(1.1283791670955126, rel=1e-9)

    u4 = solve_classic(Exponential(4.0), CFG)
    assert rel_error(u4(xs), (4.0 / SQRT_PI) * np.exp(4.0 * xs)) < 1e-8


def test_solve_classic_zero_input():
    u = solve_classic(zero_function(), CFG)
    assert np.array_equal(u(np.linspace(-1, 1, 5)), np.zeros(5))


def test_solve_ndim_examples():
    xs = np.linspace(-1.0, 1.0, 7)
    u2 = solve_ndim(Exponential(1.0), 2, CFG)
    assert rel_error(u2(xs), np.exp(xs) / math.pi) < 1e-14
    assert u2(0.0) == pytest.approx(0.3183098861837907, rel=1e-13)

    u1 = solve_ndim(Exponential(1.0), 1, CFG)
    assert rel_error(u1(xs), np.exp(xs) / SQRT_PI) < 1e-9

    u3 = solve_ndim(Exponential(2.0), 3, CFG)
    want = math.pi ** -1.5 * 2.0 ** 1.5 * np.exp(2.0 * xs)
    assert rel_error(u3(xs), want) < 1e-9

    u4 = solve_ndim(Exponential(1.0), 4, CFG)
    assert rel_error(u4(xs), np.exp(xs) / math.pi ** 2) < 1e-14


def test_solve_ndim_rejects_bad_dimension():
    with pytest.raises(DomainError):
        solve_ndim(Exponential(1.0), 0, CFG)


def test_solve_power_examples():
    xs = np.linspace(-1.0, 1.0, 7)
    f = Exponential(1.0)

    u1 = solve_power(f, 1, CFG)
    assert rel_error(u1(xs), np.exp(xs)) < 1e-14  # u = f'

    u2 = solve_power(f, 2, CFG)
    uc = solve_classic(f, CFG)
    assert rel_error(u2(xs), uc(xs)) < 1e-7

    u3 = solve_power(f, 3, CFG)
    assert rel_error(u3(xs), INV_GAMMA_4_3 * np.exp(xs)) < 1e-9

    with pytest.raises(DomainError):
        solve_power(f, 0, CFG)


def test_solve_quadform_examples():
    xs = np.linspace(-1.0, 1.0, 7)
    f = Exponential(1.0)

    u_eye = solve_quadform(f, PosDefMatrix.identity(2), CFG)
    u_nd = solve_ndim(f, 2, CFG)
    assert rel_error(u_eye(xs), u_nd(xs)) < 1e-14

    u_diag = solve_quadform(f, PosDefMatrix([[4.0, 0.0], [0.0, 1.0]]), CFG)
    assert rel_error(u_diag(xs), 2.0 * np.exp(xs) / math.pi) < 1e-13

    u_full = solve_quadform(f, PosDefMatrix([[2.0, 1.0], [1.0, 2.0]]), CFG)
    assert rel_error(u_full(xs), math.sqrt(3.0) * np.exp(xs) / math.pi) < 1e-13


def test_quadform_scaling_law():
    xs = np.linspace(-1.0, 1.0, 5)
    f = Exponential(1.0)
    A = PosDefMatrix([[2.0, 1.0], [1.0, 2.0]])
    base = solve_quadform(f, A, CFG)
    for c in (2.0, 5.0):
        scaled = solve_quadform(f, PosDefMatrix(c * A.entries), CFG)
        assert rel_error(scaled(xs), c ** (A.n / 2.0) * base(xs)) < 1e-9


def test_classic_is_twice_the_symmetric_line():
    # The full-line variant drops the half-line factor 1/2.
    xs = np.linspace(-1.0, 1.0, 5)
    f = Exponential(1.0)
    uc = solve_classic(f, CFG)
    u1 = solve_ndim(f, 1, CFG)
    assert rel_error(uc(xs), 2.0 * u1(xs)) < 1e-9


def test_even_direct_path_matches_fractional_path(family):
    tight = QuadratureConfig(tol=1e-11)
    xs = np.linspace(-1.0, 1.0, 5)
    for f in family:
        for n in (2, 4):
            direct = solve_ndim(f, n, tight)
            # D^(-1) f^(m+1), the non-canonical split of the integer order m = n/2
            frac = math.pi ** (-n / 2.0) * weyl_integral(derivative_view(f, n // 2 + 1), 1.0,
                                                         xs, tight)
            assert rel_error(frac, direct(xs), floor=1e-6) < 1e-7


@pytest.mark.parametrize("n", [1, 3, 11, 16])
def test_solve_ndim_shares_frac_derivative(family, n):
    # Both split nu = n/2 through split_order, so they agree bit for bit.
    xs = np.linspace(-1.0, 1.0, 5)
    for f in family:
        want = math.pi ** (-n / 2.0) * frac_derivative(f, n / 2.0, xs, CFG)
        assert np.array_equal(solve_ndim(f, n, CFG)(xs), want)


def test_solver_linearity(family):
    tight = QuadratureConfig(tol=1e-12)
    xs = np.linspace(-0.5, 0.5, 5)
    f, g = family[0], family[2]
    combo = linear_combination([2.0, -0.5], [f, g])
    for solve in (
        lambda h: solve_classic(h, tight),
        lambda h: solve_ndim(h, 3, tight),
        lambda h: solve_power(h, 3, tight),
    ):
        lhs = solve(combo)(xs)
        rhs = 2.0 * solve(f)(xs) - 0.5 * solve(g)(xs)
        assert rel_error(lhs, rhs, floor=1e-6) < 1e-9


def test_insufficient_derivatives_raise():
    bare = materialize(lambda x: np.exp(x))
    with pytest.raises(UnsupportedOrderError):
        solve_classic(bare, CFG)
    order_two = CallableFunction(np.exp, derivative=lambda k, x: np.exp(x), derivative_order=2,
                                 tail_bound=Exponential(1.0).tail_bound)
    with pytest.raises(UnsupportedOrderError):
        solve_ndim(order_two, 6, CFG)


def test_solutions_do_not_expose_derivatives():
    u = solve_classic(Exponential(1.0), CFG)
    assert u.derivative_order == 0
    with pytest.raises(UnsupportedOrderError):
        u.derivative(1, 0.0)


def test_value_does_not_depend_on_call_history():
    # A solution is a function of its inputs only: evaluating other points
    # first must not change a later value.
    u = solve_classic(Exponential(1.0))
    u(np.array([0.0, 5.0]))
    assert u(0.0) == solve_classic(Exponential(1.0))(0.0)


def test_concurrent_evaluation_is_consistent():
    import concurrent.futures

    u = solve_ndim(Exponential(1.0), 3, CFG)
    xs = np.linspace(-1.0, 1.0, 7)
    sequential = u(xs)
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: u(xs), range(16)))
    for r in results:
        assert np.array_equal(r, sequential)


def test_solve_problem_dispatch(family):
    f = family[0]
    xs = np.linspace(-0.5, 0.5, 3)
    cases = [
        (ProblemSpec(variant="classic"), solve_classic(f, CFG)),
        (ProblemSpec(variant="symmetric_ndim", n=3), solve_ndim(f, 3, CFG)),
        (ProblemSpec(variant="power", m=3), solve_power(f, 3, CFG)),
        (
            ProblemSpec(variant="quadform", A=PosDefMatrix.identity(2)),
            solve_quadform(f, PosDefMatrix.identity(2), CFG),
        ),
    ]
    for spec, direct in cases:
        via = solve_problem(spec, f, CFG)
        assert rel_error(via(xs), direct(xs)) < 1e-12
