import numpy as np
import pytest
from scipy import integrate

from fraclamb import (
    CallableFunction,
    ConvergenceError,
    DomainError,
    Exponential,
    GaussTail,
    NoDecayError,
    ProblemSpec,
    QuadratureConfig,
    ShiftedGaussian,
    frac_derivative,
    materialize,
    split_order,
    verify,
    weyl_integral,
)
from fraclamb import _quad, fractional_ops
from fraclamb.fractional_ops import _weyl_batch, derivative_view
from fraclamb.special_functions import gamma
from conftest import rel_error

CFG = QuadratureConfig()


def quad_oracle(g, mu, x, lower=-40.0):
    """Defining integral by adaptive quadrature (QAWS handles the algebraic
    endpoint weight), independent of the substitution-based route under
    test."""
    val, err = integrate.quad(
        lambda xi: float(g(xi)), lower, x, weight="alg", wvar=(0.0, mu - 1.0),
        limit=500, epsabs=1e-13, epsrel=1e-13,
    )
    assert err < 1e-9
    return val / gamma(mu)


class TestSplitOrder:
    def test_canonical_splits(self):
        assert split_order(0.5) == (1, 0.5)
        assert split_order(2.5) == (3, 0.5)
        assert split_order(2.0) == (2, 0.0)
        assert split_order(0.0) == (0, 0.0)
        assert split_order(-0.5) == (0, 0.5)
        assert split_order(-1.0) == (0, 1.0)
        assert split_order(5.5) == (6, 0.5)

    def test_out_of_range(self):
        for nu in (-1.5, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(DomainError):
                split_order(nu)


def test_weyl_eigenvalues_of_exponential():
    # D^(-mu) e^(lam x) = lam^(-mu) e^(lam x)
    assert weyl_integral(Exponential(1.0), 0.5, 0.0, CFG) == pytest.approx(1.0, rel=1e-9)
    assert weyl_integral(Exponential(1.0), 1.0, 0.0, CFG) == pytest.approx(1.0, rel=1e-9)
    assert weyl_integral(Exponential(2.0), 0.5, 0.0, CFG) == pytest.approx(
        2.0 ** -0.5, rel=1e-9
    )


# 1/pi, 2^(-1/2) and 16/17 leave every 2 mu q with q <= 16 non-integer, so
# they take the fallback substitution t = s^(1/(2 mu)).
@pytest.mark.parametrize("mu", [0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.75, 0.9,
                                1.0 / np.pi, 2.0 ** -0.5, 16.0 / 17.0])
def test_weyl_against_defining_integral(mu):
    g = GaussTail(1.0, 0.0)
    for x in (-0.5, 0.5):
        want = quad_oracle(g, mu, x)
        got = weyl_integral(g, mu, x, CFG)
        assert got == pytest.approx(want, rel=1e-7)


def test_weyl_gaussian_against_defining_integral():
    g = ShiftedGaussian(1.0, 0.0)
    for mu in (0.3, 0.5, 0.75):
        want = quad_oracle(g, mu, 0.25)
        assert weyl_integral(g, mu, 0.25, CFG) == pytest.approx(want, rel=1e-7)


def test_weyl_rejects_bad_order():
    with pytest.raises(DomainError):
        weyl_integral(Exponential(1.0), 0.0, 0.0, CFG)
    with pytest.raises(DomainError):
        weyl_integral(Exponential(1.0), 1.5, 0.0, CFG)


def test_weyl_requires_decay_or_cutoff():
    plain = materialize(lambda x: np.exp(np.minimum(x, 0.0)))
    with pytest.raises(NoDecayError):
        weyl_integral(plain, 0.5, 0.0, CFG)


def test_weyl_convergence_error_carries_estimate(monkeypatch):
    monkeypatch.setattr(_quad, "MAX_PANELS", 1)
    with pytest.raises(ConvergenceError) as info:
        weyl_integral(Exponential(1.0), 0.5, 0.0, CFG)
    assert info.value.estimate is not None


BUILTINS = [Exponential(1.3), GaussTail(1.2, 0.3), ShiftedGaussian(0.8, -0.2)]


@pytest.mark.parametrize("mu", [0.5, 1.0 / 3.0, 2.0 / 3.0], ids=["1/2", "1/3", "2/3"])
@pytest.mark.parametrize("f", BUILTINS, ids=["exp", "gauss_tail", "shifted_gaussian"])
def test_weyl_values_do_not_depend_on_the_block_size(f, mu, monkeypatch):
    # 1500 rows span several blocks at every refinement level.
    xs = np.linspace(-3.0, 1.0, 1500)
    assert xs.size * _quad.NODES_PER_PANEL > 2 * fractional_ops._BLOCK_NODES
    gs = (f, derivative_view(f, 1))
    blocked = [_weyl_batch(g, mu, xs, CFG) for g in gs]
    # One row per block, then the whole batch in one block.
    for block in (1, xs.size * _quad.MAX_PANELS * _quad.NODES_PER_PANEL):
        monkeypatch.setattr(fractional_ops, "_BLOCK_NODES", block)
        for g, want in zip(gs, blocked):
            assert _weyl_batch(g, mu, xs, CFG).tobytes() == want.tobytes()


def test_integrate_batch_integrand_receives_every_row(monkeypatch):
    """The contract the benchmark's tracer relies on: it applies the rule's
    weights to each integrand call's values over all rows of the call."""
    calls = []
    original = _quad.integrate_batch

    def recording(integrand, uppers, cfg):
        rows = np.atleast_1d(uppers).size

        def checked(s):
            vals = integrand(s)
            calls.append((rows, s.shape, np.shape(vals)))
            return vals
        return original(checked, uppers, cfg)

    monkeypatch.setattr(_quad, "integrate_batch", recording)
    weyl_integral(GaussTail(1.2, 0.3), 2.0 / 3.0, np.linspace(-3.0, 1.0, 1500), CFG)
    verify(ProblemSpec("power", m=3), ShiftedGaussian(0.8, -0.2), (-2.0, 1.0), 3, CFG)
    assert max(rows for rows, _, _ in calls) * _quad.NODES_PER_PANEL > fractional_ops._BLOCK_NODES
    assert min(rows for rows, _, _ in calls) == 1
    for rows, shape, vals_shape in calls:
        assert shape[0] == rows and vals_shape == shape


def test_eigenfunction_law_property():
    xs = np.linspace(-2.0, 2.0, 20)
    for lam in (0.5, 1.0, 2.0, 4.0):
        f = Exponential(lam)
        for nu in (0.5, 1.5, 2.5):
            got = frac_derivative(f, nu, xs, CFG)
            want = lam ** nu * np.exp(lam * xs)
            assert rel_error(got, want) < 1e-7


def test_semigroup_property(family):
    xs = np.linspace(-1.0, 1.0, 7)
    for g in family:
        for mu, nu in ((0.25, 0.25), (0.5, 0.5), (0.3, 0.4), (0.25, 0.5)):
            inner = materialize(
                lambda x, g=g, mu=mu: weyl_integral(g, mu, x, CFG),
                decay_like=g, decay_scale=4.0, label="inner",
            )
            lhs = weyl_integral(inner, nu, xs, CFG)
            rhs = weyl_integral(g, mu + nu, xs, CFG)
            assert rel_error(lhs, rhs) < 1e-6


def test_half_derivative_twice_is_first_derivative(family):
    xs = np.linspace(-1.0, 1.0, 7)
    for f in family:
        inner = CallableFunction(
            lambda x, f=f: frac_derivative(f, 0.5, x, CFG),
            derivative=lambda k, x, f=f: frac_derivative(f, k + 0.5, x, CFG),
            derivative_order=1,
            tail_bound=lambda L, f=f: 4.0 * f.tail_bound(L),
            value_tail_bound=lambda L, f=f: 4.0 * f.value_tail_bound(L),
            label="half",
        )
        lhs = np.asarray(frac_derivative(inner, 0.5, xs, CFG))
        rhs = np.asarray(f.derivative(1, xs))
        assert rel_error(lhs, rhs, floor=1e-3) < 1e-5


def test_integer_orders_reduce_to_plain_derivatives():
    f = Exponential(1.0)
    xs = np.linspace(-2.0, 2.0, 9)
    # Canonical split short-circuits to the analytic derivative.
    for nu in (1, 2, 3):
        got = frac_derivative(f, float(nu), xs, CFG)
        assert rel_error(got, np.exp(xs)) < 1e-12
    # The quadrature split D^(-1) f^(nu+1) must agree too.
    for nu in (1, 2, 3):
        got = weyl_integral(derivative_view(f, nu + 1), 1.0, xs, CFG)
        assert rel_error(got, np.exp(xs)) < 1e-9


def test_derivative_view_supplies_the_orders_it_declares(family):
    # The view of f^(2) declares order K - 2, so its j-th derivative is f^(2+j).
    xs = np.linspace(-1.0, 1.0, 5)
    for f in family:
        view = derivative_view(f, 2)
        assert view.derivative(1, 0.0) == f.derivative(3, 0.0)
        assert np.array_equal(frac_derivative(view, 2.5, xs, CFG), frac_derivative(f, 4.5, xs, CFG))


def test_frac_derivative_identity_and_scalar_forms():
    f = GaussTail(1.0, 0.0)
    assert frac_derivative(f, 0.0, 0.3, CFG) == pytest.approx(float(f(0.3)), rel=1e-14)
    v = frac_derivative(f, 0.5, 0.3, CFG)
    assert isinstance(v, float)


def test_frac_derivative_scalar_example():
    # D^(1/2) e^x = e^x; third integer derivative likewise.
    f = Exponential(1.0)
    assert frac_derivative(f, 0.5, 0.0, CFG) == pytest.approx(1.0, rel=1e-8)
    assert frac_derivative(f, 3.0, 0.0, CFG) == pytest.approx(1.0, rel=1e-12)
