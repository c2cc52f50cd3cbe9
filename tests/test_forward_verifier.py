import json
import math

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
from fraclamb import _quad, forward_verifier
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


def test_forward_montecarlo_determinism():
    a = forward_montecarlo(Exponential(1.0), 3, 0.5, CFG)
    b = forward_montecarlo(Exponential(1.0), 3, 0.5, CFG)
    assert a == b
    other = forward_montecarlo(Exponential(1.0), 3, 0.5, QuadratureConfig(mc_seed=1))
    assert other[0] != a[0] and other[1] != a[1]


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


@pytest.mark.parametrize("terms", [1, 2, 3, 37])
def test_clenshaw_is_chebval_bit_for_bit(terms):
    rng = np.random.default_rng(terms)
    coef = rng.standard_normal(terms)
    t = rng.uniform(-1.0, 1.0, 1000)
    assert np.array_equal(forward_verifier._clenshaw(coef, t),
                          np.polynomial.chebyshev.chebval(t, coef))


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


@BUILT_INS
def test_proxy_holds_at_every_sample(f, monkeypatch):
    # The runtime check reads only the first 256 samples; this reads all.
    A = PROXY_MATRICES[1]
    u = solve_quadform(f, A, PROXY_CFG)
    seen, sample_values = [], forward_verifier._sample_values

    def recording(u, forms, x, cfg):
        vals = sample_values(u, forms, x, cfg)
        seen.append((forms, x, vals))
        return vals

    monkeypatch.setattr(forward_verifier, "_sample_values", recording)
    for x in (-1.0, 0.3):
        forward_quadform_mc(u, A, x, PROXY_CFG)
    assert len(seen) == 2
    for forms, x, vals in seen:
        direct = u.evaluate(x - forms)
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
    forms, sample_values = [], forward_verifier._sample_values
    monkeypatch.setattr(forward_verifier, "_sample_values",
                        lambda u, fm, x, cfg: forms.append(fm) or sample_values(u, fm, x, cfg))
    block = forward_verifier._DIRECT_BLOCK
    for A in PROXY_MATRICES:
        for x in (-0.3, 0.3):
            want = forward_quadform_mc(_direct(KINKED), A, x, PROXY_CFG)
            sizes.clear()
            assert forward_quadform_mc(u, A, x, PROXY_CFG) == want
            cap = forward_verifier._decay_span(KINKED, x, CUTOFF_EPSILON)
            inside = int(np.sum(forms[-1] <= cap))
            past_blocks = -(-(LATTICE_SAMPLES - inside) // block)
            # u(x) twice, the nodes, the samples past the cap, the checks;
            # then the samples below the cap again, in blocks.
            assert sizes[:3] == [1, 1, 129] and sizes[3 + past_blocks] == 256
            fallback = sizes[4 + past_blocks:]
            assert max(fallback) <= block and sum(fallback) == inside


def test_no_direct_read_grows_with_the_sample_count():
    # Past the proxy's 129 nodes and 256 checks, no call of u sees more than
    # _DIRECT_BLOCK samples, though the proxy fails and N q is 12 blocks.
    u, sizes = _counting(KINKED, marked=True)
    cfg = QuadratureConfig(mc_samples=50_000)
    forward_quadform_mc(u, PROXY_MATRICES[1], 0.3, cfg)
    assert sizes[:3] == [1, 1, 129]
    direct = sizes[3:]
    direct.remove(256)
    assert max(direct) <= forward_verifier._DIRECT_BLOCK
    # The samples past the cap once, those below it once more.
    assert sum(direct) == 49152


@pytest.mark.parametrize("marked", [True, False], ids=["marked", "unmarked"])
@BUILT_INS
def test_proxy_bounds_evaluations_per_probe(f, marked, monkeypatch):
    A = PROXY_MATRICES[1]
    u, sizes = _counting(solve_quadform(f, A, PROXY_CFG), marked)
    forms, sample_values = [], forward_verifier._sample_values
    monkeypatch.setattr(forward_verifier, "_sample_values",
                        lambda u, fm, x, cfg: forms.append(fm) or sample_values(u, fm, x, cfg))
    for x in (-1.0, 0.3):
        sizes.clear()
        forward_quadform_mc(u, A, x, PROXY_CFG)
        seen = list(sizes)
        # The first evaluation is u(x) alone, which sizes the logistic map.
        assert seen[0] == 1
        if marked:
            # u(x) for the cap, the proxy's nodes, the samples past the cap
            # and the checks.
            cap = forward_verifier._decay_span(u, x, CUTOFF_EPSILON)
            past = int(np.sum(forms[-1] > cap))
            assert 0 < past < 0.1 * LATTICE_SAMPLES
            assert seen[1:] == [1, 129, past, 256]
        else:
            assert seen[1:] == [LATTICE_SAMPLES]


def test_samples_past_the_cap_go_direct_in_blocks(monkeypatch):
    A = PROXY_MATRICES[1]
    u, sizes = _counting(solve_quadform(Exponential(1.0), A, PROXY_CFG), marked=True)
    want = forward_quadform_mc(u, A, 0.3, PROXY_CFG)
    past = sizes[3]
    assert past > 64
    monkeypatch.setattr(forward_verifier, "_DIRECT_BLOCK", 64)
    sizes.clear()
    got = forward_quadform_mc(u, A, 0.3, PROXY_CFG)
    remainder = [past % 64] if past % 64 else []
    assert sizes == [1, 1, 129] + [64] * (past // 64) + remainder + [256]
    assert got == want


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
