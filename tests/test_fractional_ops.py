import numpy as np
import pytest
from scipy import integrate

from fraclamb import (
    ConvergenceError,
    DomainError,
    Exponential,
    GaussTail,
    NoDecayError,
    QuadratureConfig,
    ShiftedGaussian,
    frac_derivative,
    materialize,
    split_order,
    weyl_integral,
)
from fraclamb import _quad
from fraclamb.fractional_ops import derivative_view
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
        inner = materialize(
            lambda x, f=f: frac_derivative(f, 0.5, x, CFG),
            decay_like=f, decay_scale=4.0, numeric_fallback=True, label="half",
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
