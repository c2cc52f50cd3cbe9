import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from fraclamb import (
    CallableFunction,
    ConvergenceError,
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
    sample,
    solve_classic,
    solve_ndim,
    solve_power,
    solve_problem,
    solve_quadform,
    sphere_volume,
    verify,
)
from fraclamb import _cheb, _quad, forward_verifier, function_model
from fraclamb.function_model import CUTOFF_EPSILON
from fraclamb.special_functions import gamma
from conftest import nan_left_of_minus_three, zero_function

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

    @pytest.mark.parametrize("seed", [2 ** 64, -1])
    def test_seed_must_fit_in_64_bits(self, seed):
        with pytest.raises(DomainError, match=rf"^mc_seed must fit in 64 bits, got {seed}$"):
            QuadratureConfig(mc_seed=seed)

    @pytest.mark.parametrize("field", ["mc_samples", "mc_seed"])
    def test_refuses_non_integral_counts(self, field):
        with pytest.raises(DomainError, match=rf"^{field} must be an integer, got 5000.5$"):
            QuadratureConfig(**{field: 5000.5})

    def test_stores_integral_floats_as_int(self):
        cfg = QuadratureConfig(mc_samples=5000.0, mc_seed=7.0)
        assert (cfg.mc_samples, cfg.mc_seed) == (5000, 7)
        assert type(cfg.mc_samples) is int and type(cfg.mc_seed) is int
        f = Exponential(1.0)
        assert forward_montecarlo(f, 2, 0.0, cfg) == \
            forward_montecarlo(f, 2, 0.0, QuadratureConfig(mc_samples=5000, mc_seed=7))


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


# n = 4, the cap, is the only dimension that reads the lattice vector's
# fourth component.
N4_CFG = QuadratureConfig(mc_samples=50_000)
A4 = PosDefMatrix([[2.0, 0.5, 0.0, 0.1], [0.5, 1.5, 0.3, 0.0],
                   [0.0, 0.3, 1.0, 0.2], [0.1, 0.0, 0.2, 1.2]])


def test_forward_montecarlo_at_the_dimension_cap():
    u = Exponential(1.0)
    est, se = forward_montecarlo(u, 4, 0.0, N4_CFG)
    assert abs(est - math.pi ** 2) < 4.0 * se
    assert abs(est - forward_radial(u, 4, 0.0, CFG)) < 4.0 * se


def test_quadform_round_trip_at_the_dimension_cap():
    f = GaussTail(1.0, 0.0)
    u = solve_quadform(f, A4, N4_CFG)
    for x in (-0.5, 0.5):
        est, se = forward_quadform_mc(u, A4, x, N4_CFG)
        assert abs(est - f(x)) < 4.0 * se


def test_forward_montecarlo_determinism():
    a = forward_montecarlo(Exponential(1.0), 3, 0.5, CFG)
    b = forward_montecarlo(Exponential(1.0), 3, 0.5, CFG)
    assert a == b
    other = forward_montecarlo(Exponential(1.0), 3, 0.5, QuadratureConfig(mc_seed=1))
    assert other[0] != a[0] and other[1] != a[1]


def test_signed_zero_probes_draw_the_same_shifts():
    # -0.0 == 0.0, so both must key the same Philox stream.
    A = PosDefMatrix([[2.0, 1.0], [1.0, 2.0]])
    cfg = QuadratureConfig(mc_samples=5000)
    assert (forward_quadform_mc(Exponential(1.0), A, -0.0, cfg)
            == forward_quadform_mc(Exponential(1.0), A, 0.0, cfg))


class _ZeroShifts:
    """A probe generator whose every shift is 0."""

    def random(self, shape):
        return np.zeros(shape)


def test_point_on_the_cube_boundary_contributes_zero(monkeypatch):
    # With a zero shift the point k = 0 sits at t = 0, where the logistic
    # map sends y to -inf and its Jacobian to inf.
    monkeypatch.setattr(forward_verifier, "_probe_rng", lambda seed, x: _ZeroShifts())
    est, se = forward_montecarlo(Exponential(1.0), 2, 0.0, QuadratureConfig(mc_samples=5000))
    assert math.isfinite(est) and math.isfinite(se)
    assert abs(est / math.pi - 1.0) < 1e-4  # one unshifted 256-point rule


def test_quadform_identity_matches_montecarlo_bitwise():
    mc = forward_montecarlo(Exponential(1.0), 2, 0.0, CFG)
    qf = forward_quadform_mc(Exponential(1.0), PosDefMatrix.identity(2), 0.0, CFG)
    assert mc == qf


def test_forward_quadform_accepts_a_nested_list():
    rows = [[2.0, 1.0], [1.0, 2.0]]
    u = Exponential(1.0)
    assert forward_quadform_mc(u, rows, 0.3, CFG) == forward_quadform_mc(
        u, PosDefMatrix(rows), 0.3, CFG)


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


@pytest.mark.parametrize("spec, cfg", [
    (ProblemSpec(variant="classic"), CFG),
    (ProblemSpec(variant="power", m=3), CFG),
    (ProblemSpec(variant="symmetric_ndim", n=3), CFG),
    (ProblemSpec(variant="quadform", A=PosDefMatrix([[2.0, 1.0], [1.0, 2.0]])),
     QuadratureConfig(mc_samples=1000)),
], ids=["classic", "power_m3", "ndim_n3", "quadform"])
def test_forward_values_depend_on_their_own_probe_only(spec, cfg):
    # A vector call equals per-point calls bit for bit, and a value stays
    # the same when the rest of its probe array changes.
    u = solve_problem(spec, ShiftedGaussian(1.0, 0.0), cfg)
    xs = np.linspace(-1.0, 1.0, 7)
    values, std_errors = forward(spec, u, xs, cfg)
    singles = [forward(spec, u, np.array([x]), cfg) for x in xs]
    assert np.array_equal(values, [v[0] for v, _ in singles])
    every_other, every_other_se = forward(spec, u, xs[::2], cfg)
    assert np.array_equal(every_other, values[::2])
    if spec.variant == "quadform":
        assert np.array_equal(std_errors, [se[0] for _, se in singles])
        assert np.array_equal(every_other_se, std_errors[::2])
    else:
        assert std_errors is None and all(se is None for _, se in singles)


@pytest.mark.parametrize("solve, alpha, m, w", [
    (lambda f: solve_classic(f, CFG), 0, 2, 1.0),
    *[(lambda f, m=m: solve_power(f, m, CFG), 0, m, 1.0) for m in (1, 3, 4)],
    *[(lambda f, n=n: solve_ndim(f, n, CFG), n - 1, 2, sphere_volume(n)) for n in (1, 2, 3, 5)],
], ids=["classic", "power_m1", "power_m3", "power_m4", "ndim_n1", "ndim_n2", "ndim_n3", "ndim_n5"])
def test_solver_constant_inverts_kernel_weight(solve, alpha, m, w):
    # The forward kernel w int_0^inf y^alpha e^(x - y^m) dy is
    # w Gamma((alpha + 1)/m) / m times e^x, and u = c D^nu e^x = c e^x, so
    # the closed-form solver constant c must invert it.
    c = float(solve(Exponential(1.0))(0.0))
    assert c * w * gamma((alpha + 1) / m) / m == pytest.approx(1.0, rel=1e-8)


def test_verify_validation():
    f = Exponential(1.0)
    with pytest.raises(DomainError):
        verify(ProblemSpec(variant="classic"), f, (1.0, -1.0), 5, CFG)
    with pytest.raises(DomainError):
        verify(ProblemSpec(variant="classic"), f, (-1.0, 1.0), 2, CFG)
    with pytest.raises(DomainError, match="width"):  # b - a overflows
        verify(ProblemSpec(variant="classic"), f, (-1e308, 1e308), 5, CFG)


@pytest.mark.parametrize("call, count, accepted", [
    ("verify", 5.9, False), ("verify", 5.0, True),
    ("sample", 4.7, False), ("sample", 4.0, True),
])
def test_counts_are_refused_unless_integral(call, count, accepted):
    # A non-integral count is refused, never truncated, as n, m and the
    # Monte Carlo counts are.
    f = Exponential(1.0)
    run = {
        "verify": lambda: verify(ProblemSpec(variant="classic"), f, (-1.0, 1.0), count, CFG).probe_count,
        "sample": lambda: sample(f, -1.0, 1.0, count).values.size,
    }[call]
    if accepted:
        assert run() == count
    else:
        with pytest.raises(DomainError, match="must be an integer"):
            run()


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


# ---------------------------------------------------------------------------
# Chebyshev proxy for quadrature-valued solutions
# ---------------------------------------------------------------------------

PROXY_CFG = QuadratureConfig(mc_samples=5000)
PROXY_MATRICES = [
    PosDefMatrix([[2.0]]),
    PosDefMatrix([[2.0, 0.5, 0.0], [0.5, 1.5, 0.3], [0.0, 0.3, 1.0]]),
]
BUILT_INS = pytest.mark.parametrize(
    "f", [Exponential(1.0), GaussTail(1.0, 0.0), ShiftedGaussian(1.0, 0.0)],
    ids=["exp", "gauss_tail", "shifted_gaussian"])


def _direct(u):
    """u without the quadrature_valued mark: evaluated at every sample."""
    return materialize(u.evaluate, decay_like=u, label="direct")


@pytest.mark.parametrize("A", PROXY_MATRICES, ids=["n=1", "n=3"])
@BUILT_INS
def test_proxied_quadform_mc_agrees_with_direct_route(f, A):
    u = solve_quadform(f, A, PROXY_CFG)
    assert u.quadrature_valued
    for x in (-1.0, 0.3):
        est, se = forward_quadform_mc(u, A, x, PROXY_CFG)
        want_est, want_se = forward_quadform_mc(_direct(u), A, x, PROXY_CFG)
        assert abs(est / want_est - 1.0) <= 1e-10
        # The SE sits near cfg.tol of the estimate, so it is compared at the
        # estimate's scale.
        assert abs(se - want_se) <= 1e-10 * abs(want_est)


def _recording_samples(monkeypatch):
    """(forms, x, span, values) of each _sample_values call, as a list; the
    arrays are copied, as the lattice rule reuses its buffers."""
    seen, sample_values = [], forward_verifier._sample_values

    def recording(u, forms, x, span, *rest):
        vals = sample_values(u, forms, x, span, *rest)
        seen.append((forms.copy(), x, span, vals.copy()))
        return vals

    monkeypatch.setattr(forward_verifier, "_sample_values", recording)
    return seen


@BUILT_INS
def test_proxy_holds_at_every_sample(f, monkeypatch):
    # The runtime check reads the 128 odd grid points; this reads every
    # sample. Past the span the table's closing cell gives a finite value,
    # which the lattice rule zeroes.
    A = PROXY_MATRICES[1]
    u = solve_quadform(f, A, PROXY_CFG)
    seen = _recording_samples(monkeypatch)
    for x in (-1.0, 0.3):
        forward_quadform_mc(u, A, x, PROXY_CFG)
    assert len(seen) == 2
    for forms, x, span, vals in seen:
        inside = forms <= span
        assert np.isfinite(vals[~inside]).all()
        vals = vals[inside]
        direct = u.evaluate(x - forms[inside])
        # A proxy that failed its check would return these values bit for bit.
        assert not np.array_equal(vals, direct)
        assert np.max(np.abs(vals - direct)) <= PROXY_CFG.tol * np.max(np.abs(direct))


# N q integrand values for PROXY_CFG: N = 256 lattice points, the largest
# power of two <= 5000 / 16, under q = 5000 // 256 = 19 shifts.
LATTICE_SAMPLES = 256 * 19


def _counting(u, marked):
    """u, marked or not, recording the size of each evaluated batch."""
    sizes = []

    def evaluate(xs):
        sizes.append(int(np.size(xs)))
        return u.evaluate(xs)

    counted = CallableFunction(evaluate, tail_bound=u.tail_bound, label="counted")
    counted.quadrature_valued = marked
    return counted, sizes


# A kink at -0.5, inside every sample span below: degree 128 cannot reach
# cfg.tol there, so the proxy fails its check.
KINKED = CallableFunction(lambda x: np.exp(np.minimum(x, -0.5)),
                          tail_bound=Exponential(1.0).tail_bound, label="kinked")


def test_proxy_failing_its_check_falls_back_to_direct_values(monkeypatch):
    u, sizes = _counting(KINKED, marked=True)
    seen = _recording_samples(monkeypatch)
    block = function_model._DIRECT_BLOCK
    for A in PROXY_MATRICES:
        for x in (-0.3, 0.3):
            want = forward_quadform_mc(_direct(KINKED), A, x, PROXY_CFG)
            sizes.clear()
            assert forward_quadform_mc(u, A, x, PROXY_CFG) == want
            forms, _, span, _ = seen[-1]
            # u(x), then the nodes and the checks in one call; then the
            # samples below the span again, in blocks, and none past it.
            assert sizes[:2] == [1, 257]
            fallback = sizes[2:]
            assert max(fallback) <= block and sum(fallback) == np.sum(forms <= span)


def test_no_direct_read_grows_with_the_sample_count(monkeypatch):
    # Past the one call at the proxy's 129 nodes and 128 checks, no call of
    # u sees more than _DIRECT_BLOCK samples, though the proxy fails and
    # N q is 12 blocks.
    u, sizes = _counting(KINKED, marked=True)
    seen = _recording_samples(monkeypatch)
    cfg = QuadratureConfig(mc_samples=50_000)
    forward_quadform_mc(u, PROXY_MATRICES[1], 0.3, cfg)
    assert sizes[:2] == [1, 257]
    direct = sizes[2:]
    assert max(direct) <= function_model._DIRECT_BLOCK
    # The samples below the span once, those past it never, over the
    # probe's blocks.
    forms = np.concatenate([forms for forms, *_ in seen])
    span = seen[0][2]
    assert forms.size == 49152
    assert sum(direct) == np.sum(forms <= span) < forms.size


@pytest.mark.parametrize("marked", [True, False], ids=["marked", "unmarked"])
@BUILT_INS
def test_proxy_bounds_evaluations_per_probe(f, marked, monkeypatch):
    A = PROXY_MATRICES[1]
    u, sizes = _counting(solve_quadform(f, A, PROXY_CFG), marked)
    seen = _recording_samples(monkeypatch)
    for x in (-1.0, 0.3):
        sizes.clear()
        forward_quadform_mc(u, A, x, PROXY_CFG)
        forms, _, span, _ = seen[-1]
        past = int(np.sum(forms > span))
        assert 0 < past < 0.1 * LATTICE_SAMPLES
        # u(x) alone, which sizes the logistic map and the span; then the
        # proxy's nodes and its checks together, or every sample, in one call.
        if marked:
            assert sizes == [1, 257]
        else:
            assert sizes == [1, LATTICE_SAMPLES]


@BUILT_INS
def test_quadform_mc_reads_u_only_inside_the_span(f, monkeypatch):
    # The lattice rule truncates where _forward_kernel does: a quadrature-
    # valued u is read at x once and otherwise only at x - form with
    # form <= S, the 129 proxy nodes included.
    A = PROXY_MATRICES[1]
    solution = solve_quadform(f, A, PROXY_CFG)
    points = []

    def evaluate(xs):
        points.append(np.array(xs, dtype=float, ndmin=1))
        return solution.evaluate(xs)

    u = CallableFunction(evaluate, tail_bound=solution.tail_bound, label="recorded")
    u.quadrature_valued = True
    seen = _recording_samples(monkeypatch)
    for x in (-1.0, 0.3):
        points.clear()
        forward_quadform_mc(u, A, x, PROXY_CFG)
        # The span of the function the rule reads, u, whose tail bound has
        # no closed-form cutoff guess; solution(x) is u(x) without a read.
        span = forward_verifier._decay_span(u, x, solution(x), CUTOFF_EPSILON)
        forms = seen[-1][0]
        assert seen[-1][2] == span and np.any(forms > span)
        assert sum(np.array_equal(p, [x]) for p in points) == 1
        assert all(np.all(p >= x - span) for p in points)


def test_elementwise_u_is_truncated_at_the_span_too(monkeypatch):
    # exp(x) falls below CUTOFF_EPSILON = 1e-12 of u(0) = 1 left of -27.7, so
    # NaN left of -28 lies past the span, and the lattice rule drops it.
    exp = Exponential(1.0)
    nan_far_left = CallableFunction(lambda x: np.where(x < -28.0, np.nan, np.exp(x)),
                                    tail_bound=exp.tail_bound, label="nan_far_left")
    seen = _recording_samples(monkeypatch)
    for A in PROXY_MATRICES:
        got = forward_quadform_mc(nan_far_left, A, 0.0, PROXY_CFG)
        assert np.any(seen[-1][0] > 28.0)
        assert got == forward_quadform_mc(exp, A, 0.0, PROXY_CFG)


def test_sample_and_quadform_proxy_build_through_one_helper(monkeypatch):
    # Both readers of a quadrature-valued u take their series from
    # _cheb._checked_series, each at its own chop and check level, and
    # check it at odd points of the one nested grid: sample at 4, the
    # proxy at all 128.
    calls, checked_series = [], _cheb._checked_series

    def recording(f, lo, hi, checks, chop, level):
        assert np.isin(checks, _cheb._ODD).all()
        calls.append((lo, hi, checks.size, chop, level))
        return checked_series(f, lo, hi, checks, chop, level)

    for module in (function_model, forward_verifier):
        monkeypatch.setattr(module, "_checked_series", recording)
    sample(solve_classic(Exponential(1.5)), -2.0, 0.0, 401)
    assert calls == [(lo, lo + 1.0, 4, function_model._PANEL_CHOP, function_model._PANEL_CHECK)
                     for lo in (-2.0, -1.0)]
    calls.clear()
    A = PROXY_MATRICES[0]
    u = solve_quadform(Exponential(1.0), A, PROXY_CFG)
    forward_quadform_mc(u, A, 0.3, PROXY_CFG)
    span = forward_verifier._decay_span(u, 0.3, u(0.3), CUTOFF_EPSILON)
    assert calls == [(0.0, math.sqrt(span), 128, forward_verifier._PROXY_CHOP, PROXY_CFG.tol)]


def test_no_sample_below_the_span_reads_only_u_at_x(monkeypatch):
    # A span below every sample's form: u is read at x, which sizes the
    # logistic map and the span, and at the proxy's 257 points, all of them
    # x to rounding, and nowhere else; the estimate is 0.
    A = PROXY_MATRICES[1]
    u, sizes = _counting(solve_quadform(Exponential(1.0), A, PROXY_CFG), marked=True)
    decay_span = forward_verifier._decay_span

    def short_span(u, x, value, epsilon):
        span = decay_span(u, x, value, epsilon)
        return 1e-300 if epsilon == CUTOFF_EPSILON else span

    monkeypatch.setattr(forward_verifier, "_decay_span", short_span)
    seen = _recording_samples(monkeypatch)
    estimate, _ = forward_quadform_mc(u, A, 0.3, PROXY_CFG)
    forms, _, span, vals = seen[0]
    assert span == 1e-300 and np.all(forms > span) and np.isfinite(vals).all()
    assert sizes == [1, 257]
    assert estimate == 0.0


def _recording_series(monkeypatch):
    """The chopped coefficients of each series the proxy builds, as a list."""
    coefs, checked_series = [], forward_verifier._checked_series

    def recording(*args):
        got = checked_series(*args)
        coefs.append(None if got is None else got[0])
        return got

    monkeypatch.setattr(forward_verifier, "_checked_series", recording)
    return coefs


def _series_at(coef, forms, span):
    """The checked series of s -> u(x - min(s^2, span)) at s = sqrt(forms)."""
    return _cheb._clenshaw(coef, np.sqrt(forms) / (0.5 * math.sqrt(span)) - 1.0)


@BUILT_INS
def test_table_holds_every_sample_near_the_series(f, monkeypatch):
    # The table is checked at its cell midpoints only; it holds at every
    # sample below the span, within _cheb._TABLE_LEVEL of max|u|.
    A = PROXY_MATRICES[1]
    u = solve_quadform(f, A, PROXY_CFG)
    coefs = _recording_series(monkeypatch)
    seen = _recording_samples(monkeypatch)
    for x in (-1.0, 0.3):
        forward_quadform_mc(u, A, x, PROXY_CFG)
    assert len(coefs) == len(seen) == 2
    for coef, (forms, x, span, vals) in zip(coefs, seen):
        inside = forms <= span
        series = _series_at(coef, forms[inside], span)
        assert np.max(np.abs(vals[inside] - series)) <= 1e-11 * np.max(np.abs(series))


def test_table_closes_at_the_span_and_nothing_past_it_counts(monkeypatch):
    # A form of exactly S reads the series' end value, off the table's
    # closing cell; a form past S reads a finite value too, which the
    # lattice rule zeroes, so no finite value there moves the estimate.
    A = PROXY_MATRICES[1]
    u = solve_quadform(Exponential(1.0), A, PROXY_CFG)
    x = 0.3
    span = forward_verifier._decay_span(u, x, u(x), CUTOFF_EPSILON)
    coefs = _recording_series(monkeypatch)
    table = forward_verifier._proxy_table(u, x, span, PROXY_CFG)
    forms = np.array([span, 2.0 * span])
    vals = forward_verifier._sample_values(u, forms, x, span, forms > span, table,
                                           np.empty((3, 2)), np.empty(2, np.intp), 2)
    series = _series_at(coefs[0], np.linspace(0.0, span, 1001), span)
    end = _cheb._clenshaw(coefs[0], np.array([1.0]))[0]
    assert abs(vals[0] - end) <= 1e-11 * np.max(np.abs(series))
    # Here s = sqrt(S) maps to the closing cell's own index, so both read
    # y_M bit for bit, and y_M is the end value to rounding.
    cells = table.shape[1] - 1
    assert math.sqrt(span) * (cells / math.sqrt(span)) == cells
    assert vals[0] == vals[1] == table[0, -1]
    assert abs(table[0, -1] - end) <= 1e-15 * np.max(np.abs(series))

    want = forward_quadform_mc(u, A, x, PROXY_CFG)
    sample_values, pasts = forward_verifier._sample_values, []

    def junk_past_the_span(u, forms, x, span, past, *rest):
        vals = sample_values(u, forms, x, span, past, *rest)
        pasts.append(int(np.sum(past)))
        vals[past] += 1e100
        return vals

    monkeypatch.setattr(forward_verifier, "_sample_values", junk_past_the_span)
    assert forward_quadform_mc(u, A, x, PROXY_CFG) == want
    assert sum(pasts) > 0


def test_high_degree_proxy_doubles_its_cells(monkeypatch):
    # 94 coefficients stay: 2048 cells leave the table 2.3e-10 of max|u| off
    # the series, so it doubles until it holds 1e-11 of max|u| again.
    A = PROXY_MATRICES[1]
    u = solve_quadform(ShiftedGaussian(0.2), A, PROXY_CFG)
    x = 1.0
    span = forward_verifier._decay_span(u, x, u(x), CUTOFF_EPSILON)
    coefs = _recording_series(monkeypatch)
    table = forward_verifier._proxy_table(u, x, span, PROXY_CFG)
    assert coefs[0].size >= 90 and table.shape[1] > _cheb._CELLS + 1
    forms = np.linspace(0.0, span, 100_001)
    work, cell = np.empty((3, forms.size)), np.empty(forms.size, np.intp)
    vals = forward_verifier._sample_values(u, forms, x, span, forms > span, table,
                                           work, cell, forms.size)
    series = _series_at(coefs[0], forms, span)
    assert np.max(np.abs(vals - series)) <= 1e-11 * np.max(np.abs(series))


def test_table_that_cannot_stand_reads_u_directly(monkeypatch):
    # Past _cheb._CELLS_CAP the table does not stand, though the series
    # does: the samples below the span are read directly, shift by shift.
    A = PROXY_MATRICES[1]
    u, sizes = _counting(solve_quadform(Exponential(1.0), A, PROXY_CFG), marked=True)
    seen = _recording_samples(monkeypatch)
    coefs = _recording_series(monkeypatch)
    monkeypatch.setattr(_cheb, "_TABLE_LEVEL", 0.0)
    forward_quadform_mc(u, A, 0.3, PROXY_CFG)
    assert coefs[0] is not None
    forms, _, span, _ = seen[-1]
    below = np.sum(forms.reshape(-1, 256) <= span, axis=1)
    assert sizes == [1, 257] + [int(b) for b in below if b]


def test_error_on_proxy_nodes_keeps_its_class():
    def evaluate(xs):
        if np.size(xs) > 1:
            raise ConvergenceError("no convergence")
        return np.exp(xs)

    u = CallableFunction(evaluate, tail_bound=Exponential(1.0).tail_bound, label="failing")
    u.quadrature_valued = True
    for route in (u, _direct(u)):
        with pytest.raises(ConvergenceError, match="no convergence"):
            forward_quadform_mc(route, PROXY_MATRICES[1], 0.0, PROXY_CFG)


# ---------------------------------------------------------------------------
# Streaming the lattice rule through per-thread buffers
# ---------------------------------------------------------------------------

STREAM_CFG = QuadratureConfig(mc_samples=50_000)  # N = 2048 points, q = 24 shifts


def _stream_cases(cfg):
    """(u, A) pairs: a quadrature-valued u read off its proxy at n = 3, and
    elementwise ones at n = 2 and n = 3."""
    A3 = PROXY_MATRICES[1]
    return [(solve_quadform(Exponential(1.0), A3, cfg), A3),
            (Exponential(1.0), PosDefMatrix([[2.0, 1.0], [1.0, 2.0]])),
            (GaussTail(1.0, 0.0), A3)]


def test_blocks_of_shifts_change_no_float(monkeypatch):
    cases = _stream_cases(STREAM_CFG)
    monkeypatch.setattr(forward_verifier, "_BLOCK_SAMPLES", 2 ** 20)
    whole = [forward_quadform_mc(u, A, x, STREAM_CFG) for u, A in cases for x in (-1.0, 0.3)]
    # One shift per block, 5 shifts per block with a shorter last one, and
    # shorter blocks than a shift, which still hold one shift each.
    for block in (2048, 5 * 2048, 100):
        monkeypatch.setattr(forward_verifier, "_BLOCK_SAMPLES", block)
        assert [forward_quadform_mc(u, A, x, STREAM_CFG)
                for u, A in cases for x in (-1.0, 0.3)] == whole
    # A proxy that fails reads u directly shift by shift, so neither the
    # blocks nor the direct reads' chunks (of the default size, or shorter
    # than a shift of N = 256) change a float.
    A = PROXY_MATRICES[1]
    u = solve_quadform(Exponential(1.0), A, PROXY_CFG)
    monkeypatch.setattr(forward_verifier, "_PROXY_CHOP", 0.0)
    for direct in (function_model._DIRECT_BLOCK, 100):
        monkeypatch.setattr(function_model, "_DIRECT_BLOCK", direct)
        monkeypatch.setattr(forward_verifier, "_BLOCK_SAMPLES", 2 ** 20)
        whole = forward_quadform_mc(u, A, 0.3, PROXY_CFG)
        for block in (256, 1280, 2 ** 14):
            monkeypatch.setattr(forward_verifier, "_BLOCK_SAMPLES", block)
            assert forward_quadform_mc(u, A, 0.3, PROXY_CFG) == whole


def test_threads_running_probes_get_the_sequential_floats():
    cases = _stream_cases(STREAM_CFG)
    want = [forward_quadform_mc(u, A, x, STREAM_CFG) for u, A in cases for x in (-1.0, 0.3)]
    got = {}

    def run(i):
        got[i] = [forward_quadform_mc(u, A, x, STREAM_CFG)
                  for _ in range(2) for u, A in cases for x in (-1.0, 0.3)]

    # More threads than cores, switching often, each with its own buffers.
    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(got[i] == want * 2 for i in range(len(threads)))


@pytest.mark.parametrize("cfg", [STREAM_CFG, CFG], ids=["5e4", "default"])
def test_probe_allocates_nothing_that_grows_with_its_samples(cfg):
    # After one warm-up probe has sized this thread's buffers and cached the
    # lattice points, a 3x3 probe's traced peak (0.9 MB, mostly the proxy's
    # Weyl batch) does not grow with the budget. Building the (n, N q)
    # arrays whole peaked at 3.6 MB for 5e4 samples and 71 MB by default.
    A = PROXY_MATRICES[1]
    u = solve_quadform(Exponential(1.0), A, cfg)
    forward_quadform_mc(u, A, 0.3, cfg)
    tracemalloc.start()
    try:
        forward_quadform_mc(u, A, -0.2, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
