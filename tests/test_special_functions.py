import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from fraclamb import DomainError, gamma, sphere_volume

SQRT_PI = math.sqrt(math.pi)

# Frozen from a 40-digit evaluation of the defining integral.
GAMMA_25 = 1.3293403881791370  # = 3 sqrt(pi) / 4


def test_gamma_half_is_sqrt_pi():
    assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-15)


def test_gamma_one_is_exact():
    assert gamma(1.0) == 1.0


def test_gamma_two_point_five():
    # Recurrence from Gamma(1/2): 1.5 * 0.5 * sqrt(pi)
    assert gamma(2.5) == pytest.approx(GAMMA_25, rel=1e-14)


def test_gamma_matches_libm_on_working_range():
    # mpmath is an independent implementation; the contract is 1e-13
    # relative on [0.5, 50].
    ps = np.linspace(0.5, 50.0, 991)
    worst = max(abs(gamma(float(p)) / float(mpmath.gamma(float(p))) - 1.0) for p in ps)
    assert worst < 1e-13


def test_gamma_small_argument_via_recurrence():
    for p in (0.1, 0.25, 0.49):
        assert gamma(p) == pytest.approx(float(mpmath.gamma(p)), rel=1e-13)


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
def test_gamma_rejects_nonpositive(bad):
    with pytest.raises(DomainError):
        gamma(bad)


def test_gamma_recurrence_property():
    rng = np.random.default_rng(20260810)
    ps = rng.uniform(0.5, 20.0, 200)
    for p in ps:
        assert gamma(p + 1.0) == pytest.approx(p * gamma(p), rel=1e-12)


@pytest.mark.parametrize("m", range(1, 9))
def test_sine_power_integral_equals_beta(m):
    # int_0^pi sin^m t dt = B((m+1)/2, 1/2), the polar Jacobian's angular
    # factor; left side by adaptive quadrature.
    lhs, _ = integrate.quad(lambda t: math.sin(t) ** m, 0.0, math.pi)
    p, q = (m + 1) / 2.0, 0.5
    assert abs(lhs - math.gamma(p) * math.gamma(q) / math.gamma(p + q)) < 1e-10


def test_sphere_volume_examples():
    assert sphere_volume(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert sphere_volume(3) == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert sphere_volume(1) == pytest.approx(2.0, rel=1e-14)


@pytest.mark.parametrize("n", range(1, 13))
def test_sphere_volume_closed_form(n):
    assert sphere_volume(n) == pytest.approx(2.0 * math.pi ** (n / 2.0) / gamma(n / 2.0), rel=1e-14)


@pytest.mark.parametrize("n", range(1, 13))
def test_sphere_volume_simplification_identity(n):
    # Vol(S^(n-1)) * Gamma(n/2) / 2 = pi^(n/2), the constant that turns the
    # formal solution into pi^(-n/2) D^(n/2) f.
    lhs = sphere_volume(n) * 0.5 * gamma(n / 2.0)
    assert lhs == pytest.approx(math.pi ** (n / 2.0), rel=1e-13)


def test_sphere_volume_rejects_zero():
    with pytest.raises(DomainError):
        sphere_volume(0)
