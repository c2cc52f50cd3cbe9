import json
import math

import numpy as np
import pytest
from scipy import integrate

from fraclamb import (
    DimensionCapError,
    DomainError,
    Exponential,
    FracLambError,
    GaussTail,
    PosDefMatrix,
    ProblemSpec,
    QuadratureConfig,
    ShiftedGaussian,
    forward,
    forward_montecarlo,
    forward_power,
    forward_quadform_mc,
    forward_radial,
    materialize,
    sphere_volume,
    verify,
    zero_function,
)
from fraclamb import _quad
from fraclamb.special_functions import gamma
from conftest import nan_left_of_minus_three

CFG = QuadratureConfig()
SQRT_PI = math.sqrt(math.pi)


class TestQuadratureConfig:
    def test_defaults(self):
        assert CFG.tol == 1e-9
        assert _quad.MAX_PANELS == 4096
        assert CFG.mc_samples == 1_000_000
        assert CFG.mc_seed == 0xC0FFEE

    def test_validation(self):
        with pytest.raises(DomainError):
            QuadratureConfig(tol=0.0)
        with pytest.raises(DomainError):
            QuadratureConfig(mc_samples=10)


def test_forward_radial_examples():
    assert forward_radial(Exponential(1.0), 2, 0.0, CFG) == pytest.approx(math.pi, rel=1e-9)
    assert forward_radial(zero_function(), 2, 0.0, CFG) == 0.0
    want = math.pi ** 1.5 * 2.0 ** -1.5  # pi^(n/2) lam^(-n/2)
    assert forward_radial(Exponential(2.0), 3, 0.0, CFG) == pytest.approx(want, rel=1e-9)


def test_forward_radial_eigen_operator_law():
    # Vol(S^(n-1)) * int r^(n-1) e^(lam(x - r^2)) dr = pi^(n/2) lam^(-n/2) e^(lam x)
    for n in range(1, 7):
        for lam in (0.5, 1.0, 2.0):
            for x in (-1.0, 0.0, 1.0):
                got = forward_radial(Exponential(lam), n, x, CFG)
                want = math.pi ** (n / 2.0) * lam ** (-n / 2.0) * math.exp(lam * x)
                assert abs(got / want - 1.0) < 1e-8


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_forward_radial_against_quad_oracle(n):
    u = GaussTail(1.0, 0.0)
    x = 0.5
    ref, err = integrate.quad(
        lambda r: r ** (n - 1) * float(u(x - r * r)), 0.0, np.inf,
        limit=400, epsabs=1e-12, epsrel=1e-12,
    )
    assert err < 1e-10
    got = forward_radial(u, n, x, CFG)
    assert got == pytest.approx(sphere_volume(n) * ref, rel=1e-7)


def test_forward_radial_explicit_truncation():
    got = forward_radial(Exponential(1.0), 2, 0.0, CFG)
    assert got == pytest.approx(math.pi, rel=1e-8)


def test_forward_power_examples():
    u = Exponential(1.0)
    assert forward_power(u, 2, 0.0, CFG) == pytest.approx(SQRT_PI / 2.0, rel=1e-9)
    assert forward_power(u, 1, 0.0, CFG) == pytest.approx(1.0, rel=1e-9)
    # int_0^inf e^(-y^3) dy = Gamma(4/3)
    assert forward_power(u, 3, 0.0, CFG) == pytest.approx(gamma(4.0 / 3.0), rel=1e-9)


def test_forward_power_against_quad_oracle():
    u = ShiftedGaussian(1.0, 0.0)
    for m in (1, 2, 3):
        ref, err = integrate.quad(
            lambda y: float(u(0.5 - y ** m)), 0.0, np.inf,
            limit=400, epsabs=1e-12, epsrel=1e-12,
        )
        assert err < 1e-10
        assert forward_power(u, m, 0.5, CFG) == pytest.approx(ref, rel=1e-7)


def test_forward_montecarlo_examples():
    est, se = forward_montecarlo(Exponential(1.0), 2, 0.0, CFG)
    assert abs(est - math.pi) < 3.0 * se
    est, se = forward_montecarlo(Exponential(1.0), 1, 0.0, CFG)
    assert abs(est - SQRT_PI) < 3.0 * se
    est, se = forward_montecarlo(zero_function(), 2, 0.0, CFG)
    assert est == 0.0 and se == 0.0


def test_forward_montecarlo_dimension_cap():
    with pytest.raises(DimensionCapError):
        forward_montecarlo(Exponential(1.0), 5, 0.0, CFG)


def test_forward_montecarlo_determinism():
    a = forward_montecarlo(Exponential(1.0), 3, 0.5, CFG)
    b = forward_montecarlo(Exponential(1.0), 3, 0.5, CFG)
    assert a == b
    other = forward_montecarlo(Exponential(1.0), 3, 0.5, QuadratureConfig(mc_seed=1))
    assert other != a


def test_quadform_identity_matches_montecarlo_bitwise():
    mc = forward_montecarlo(Exponential(1.0), 2, 0.0, CFG)
    qf = forward_quadform_mc(Exponential(1.0), PosDefMatrix.identity(2), 0.0, CFG)
    assert mc == qf


def test_forward_quadform_examples():
    u = Exponential(1.0)
    est, se = forward_quadform_mc(u, PosDefMatrix([[4.0, 0.0], [0.0, 1.0]]), 0.0, CFG)
    assert abs(est - math.pi / 2.0) < 4.0 * se
    est, se = forward_quadform_mc(u, PosDefMatrix([[2.0, 1.0], [1.0, 2.0]]), 0.0, CFG)
    assert abs(est - math.pi / math.sqrt(3.0)) < 4.0 * se


def test_radial_vs_cartesian_bridge():
    # Numerical witness of the polar-coordinate reduction.
    for n in (1, 2, 3):
        for lam in (1.0, 2.0):
            u = Exponential(lam)
            ref = forward_radial(u, n, 0.0, CFG)
            est, se = forward_montecarlo(u, n, 0.0, CFG)
            assert abs(est - ref) < 4.0 * se
            assert abs(est - ref) / abs(ref) < 0.01


def test_round_trip_deterministic_variants_full_family(family):
    # classic and every power exponent, across the whole built-in family;
    # the n-dim sweep lives in the acceptance suite. m = 17 (mu = 16/17)
    # takes the fallback substitution of the Weyl integral.
    specs = [ProblemSpec(variant="classic")] + [
        ProblemSpec(variant="power", m=m) for m in (1, 2, 3, 4, 17)
    ]
    for spec in specs:
        for f in family:
            rep = verify(spec, f, (-1.0, 1.0), 11, CFG)
            assert rep.max_rel_residual < 1e-6, (spec.variant, spec.m, f.label)


def test_verify_ndim_round_trip():
    spec = ProblemSpec(variant="symmetric_ndim", n=3)
    report = verify(spec, Exponential(1.0), (-1.0, 1.0), 11, CFG)
    assert report.probe_count == 11
    assert report.max_rel_residual < 1e-6
    assert len(report.rows) == 11
    assert report.max_abs_residual == max(abs(r[3]) for r in report.rows)


def test_round_trip_keeps_relative_accuracy_in_the_tail():
    # Windows where f is uniformly ~1e-13 must still verify: truncation
    # scales with the window's own magnitude, not an absolute floor.
    spec = ProblemSpec(variant="symmetric_ndim", n=3)
    rep = verify(spec, Exponential(1.0), (-30.0, -28.0), 5, CFG)
    assert rep.max_rel_residual < 1e-6


def test_forward_radial_far_right_large_scale():
    got = forward_radial(Exponential(1.0), 4, 20.0, CFG)
    want = math.pi ** 2 * math.exp(20.0)
    assert got == pytest.approx(want, rel=1e-8)


def test_verify_zero_right_hand_side():
    report = verify(ProblemSpec(variant="classic"), zero_function(), (-1.0, 1.0), 5, CFG)
    assert all(r[3] == 0.0 for r in report.rows)
    assert report.max_rel_residual == 0.0


def test_verify_quadform_mc_round_trip():
    spec = ProblemSpec(variant="quadform", A=PosDefMatrix([[2.0, 1.0], [1.0, 2.0]]))
    f = Exponential(1.0)
    report = verify(spec, f, (-1.0, 1.0), 5, CFG)
    assert report.std_errors is not None
    for (x, fx, fwd, res), se in zip(report.rows, report.std_errors):
        assert abs(res) < 4.0 * se


def test_forward_has_standard_error_only_for_quadform():
    cfg = QuadratureConfig(mc_samples=1000)
    f = Exponential(1.0)
    for spec in (
        ProblemSpec(variant="classic"),
        ProblemSpec(variant="power", m=3),
        ProblemSpec(variant="symmetric_ndim", n=3),
    ):
        value, se = forward(spec, f, 0.0, cfg)
        assert se is None
        assert value > 0.0
    spec = ProblemSpec(variant="quadform", A=PosDefMatrix([[2.0]]))
    assert forward(spec, f, 0.0, cfg) == forward_quadform_mc(f, spec.A, 0.0, cfg)


def test_verify_validation():
    f = Exponential(1.0)
    with pytest.raises(DomainError):
        verify(ProblemSpec(variant="classic"), f, (1.0, -1.0), 5, CFG)
    with pytest.raises(DomainError):
        verify(ProblemSpec(variant="classic"), f, (-1.0, 1.0), 2, CFG)
    with pytest.raises(DomainError, match="width"):  # b - a overflows
        verify(ProblemSpec(variant="classic"), f, (-1e308, 1e308), 5, CFG)


def test_report_serialization_formats():
    report = verify(ProblemSpec(variant="classic"), Exponential(1.0), (-1.0, 1.0), 5, CFG)
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "x,f,forward,residual"
    assert len(lines) == 6
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == -1.0

    obj = json.loads(report.to_json())
    assert obj["probe_count"] == 5
    assert obj["window"] == [-1.0, 1.0]
    assert len(obj["rows"]) == 5
    assert obj["max_rel_residual"] == report.max_rel_residual


def test_verify_reports_nan_residuals():
    # The report must say NaN instead of reading 0, and its JSON stay strict.
    f = nan_left_of_minus_three()
    spec = ProblemSpec(variant="quadform", A=PosDefMatrix([[2.0, 1.0], [1.0, 2.0]]))
    report = verify(spec, f, (-1.0, 1.0), 3, QuadratureConfig(mc_samples=1000))
    assert all(math.isnan(fwd) for _, _, fwd, _ in report.rows)
    assert math.isnan(report.max_abs_residual)
    assert math.isnan(report.max_rel_residual)

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    obj = json.loads(report.to_json(), parse_constant=reject)
    assert obj["max_rel_residual"] is None
    assert all(row["forward"] is None and row["f"] is not None for row in obj["rows"])


def test_decay_span_rejects_non_finite_scale():
    u = materialize(lambda x: np.full(np.shape(x), np.nan),
                    decay_like=Exponential(1.0), label="nan_everywhere")
    with pytest.raises(FracLambError, match="nan_everywhere") as info:
        forward_power(u, 2, 0.0, CFG)
    assert not isinstance(info.value, DomainError)
