"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them inline). Tolerances are fixed here,
not tuned at runtime; Monte Carlo checks are deterministic via the default
seed.
"""

import math
import subprocess
import sys
import time

import numpy as np

from fraclamb import (
    Exponential,
    GaussTail,
    PosDefMatrix,
    ProblemSpec,
    QuadratureConfig,
    ShiftedGaussian,
    forward_montecarlo,
    forward_power,
    forward_quadform_mc,
    forward_radial,
    frac_derivative,
    gamma,
    materialize,
    solve_classic,
    solve_ndim,
    solve_power,
    solve_quadform,
    sphere_volume,
    verify,
    weyl_integral,
)
from fraclamb.fractional_ops import derivative_view
from conftest import rel_error, subprocess_env

CFG = QuadratureConfig()

FAMILY = [
    Exponential(1.0),
    Exponential(2.0),
    GaussTail(1.0, 0.0),
    ShiftedGaussian(1.0, 0.0),
]


def report(number, name, passed, detail, started, budget):
    elapsed = time.time() - started
    line = (f"ACCEPTANCE {number} {name}: {'PASS' if passed else 'FAIL'} "
            f"({detail}; {elapsed:.2f}s of {budget:.0f}s budget)")
    print(line)
    assert passed, line
    assert elapsed < budget, f"criterion {number} exceeded budget: {elapsed:.1f}s"


def test_criterion_1_special_function_exactness():
    t0 = time.time()
    errs = [
        abs(gamma(0.5) ** 2 / math.pi - 1.0),
        abs(gamma(1.0) - 1.0),
    ]
    for n in range(1, 13):
        lhs = sphere_volume(n) * 0.5 * gamma(n / 2.0)
        errs.append(abs(lhs / math.pi ** (n / 2.0) - 1.0))
    worst = max(errs)
    report(1, "special_function_exactness", worst < 1e-13,
           f"worst rel err {worst:.2e} < 1e-13", t0, 1.0)


def test_criterion_2_classic_round_trip():
    t0 = time.time()
    xs = np.linspace(-2.0, 2.0, 20)
    worst_solution = 0.0
    worst_forward = 0.0
    for lam in (1.0, 2.0, 4.0):
        f = Exponential(lam)
        u = solve_classic(f, CFG)
        closed = (2.0 / math.sqrt(math.pi)) * math.sqrt(lam) * np.exp(lam * xs)
        worst_solution = max(worst_solution, rel_error(u(xs), closed))
        for x in xs:
            fwd = forward_power(u, 2, float(x), CFG)
            worst_forward = max(worst_forward, abs(fwd / f(float(x)) - 1.0))
    ok = worst_solution < 1e-7 and worst_forward < 1e-6
    report(2, "classic_round_trip", ok,
           f"solution rel {worst_solution:.2e} < 1e-7, "
           f"forward rel {worst_forward:.2e} < 1e-6", t0, 5.0)


def test_criterion_3_ndim_round_trip():
    t0 = time.time()
    worst_residual = 0.0
    worst_even = 0.0
    for n in range(1, 7):
        for f in FAMILY:
            spec = ProblemSpec(variant="symmetric_ndim", n=n)
            rep = verify(spec, f, (-1.0, 1.0), 11, CFG)
            worst_residual = max(worst_residual, rep.max_rel_residual)
            if n % 2 == 0:
                m = n // 2
                u = solve_ndim(f, n, CFG)
                xs = np.linspace(-1.0, 1.0, 11)
                direct = math.pi ** (-m) * np.asarray(f.derivative(m, xs))
                worst_even = max(worst_even, rel_error(u(xs), direct, floor=1e-6))
    ok = worst_residual < 1e-6 and worst_even < 1e-9
    report(3, "ndim_round_trip", ok,
           f"max_rel_residual {worst_residual:.2e} < 1e-6, "
           f"even-n direct form {worst_even:.2e} < 1e-9", t0, 60.0)


def test_criterion_4_jacobian_embodiment():
    t0 = time.time()
    worst_z = 0.0
    worst_rel = 0.0
    for n in (1, 2, 3):
        for lam in (1.0, 2.0):
            u = Exponential(lam)
            for x in (-1.0, 0.0, 1.0):
                ref = forward_radial(u, n, x, CFG)
                est, se = forward_montecarlo(u, n, x, CFG)
                worst_z = max(worst_z, abs(est - ref) / se)
                worst_rel = max(worst_rel, abs(est - ref) / abs(ref))
    ok = worst_z < 4.0 and worst_rel < 0.01
    report(4, "jacobian_embodiment", ok,
           f"worst |z| {worst_z:.2f} < 4, worst rel {worst_rel * 100:.3f}% < 1%",
           t0, 120.0)


def test_criterion_5_power_formula_certification():
    t0 = time.time()
    f = Exponential(1.0)
    worst_forward = 0.0
    for m in (1, 2, 3, 4):
        u = solve_power(f, m, CFG)
        for x in (-1.0, 0.0, 1.0):
            fwd = forward_power(u, m, x, CFG)
            worst_forward = max(worst_forward, abs(fwd / f(x) - 1.0))
    xs = np.linspace(-1.0, 1.0, 9)
    match_classic = rel_error(solve_power(f, 2, CFG)(xs), solve_classic(f, CFG)(xs))
    ok = worst_forward < 1e-5 and match_classic < 1e-7
    report(5, "power_formula_certification", ok,
           f"forward rel {worst_forward:.2e} < 1e-5, "
           f"m=2 vs classic {match_classic:.2e} < 1e-7", t0, 30.0)


def test_criterion_6_quadform_certification():
    t0 = time.time()
    f = Exponential(1.0)
    matrices = [
        PosDefMatrix.identity(2),
        PosDefMatrix([[4.0, 0.0], [0.0, 1.0]]),
        PosDefMatrix([[2.0, 1.0], [1.0, 2.0]]),
    ]
    worst_z = 0.0
    for A in matrices:
        u = solve_quadform(f, A, CFG)
        est, se = forward_quadform_mc(u, A, 0.0, CFG)
        worst_z = max(worst_z, abs(est - f(0.0)) / se)

    xs = np.linspace(-1.0, 1.0, 5)
    A = matrices[2]
    base = solve_quadform(f, A, CFG)
    worst_scale = 0.0
    for c in (2.0, 5.0):
        scaled = solve_quadform(f, PosDefMatrix(c * A.entries), CFG)
        worst_scale = max(worst_scale, rel_error(scaled(xs), c ** (A.n / 2.0) * base(xs)))
    ok = worst_z < 4.0 and worst_scale < 1e-9
    report(6, "quadform_certification", ok,
           f"worst |z| {worst_z:.2f} < 4, det scaling {worst_scale:.2e} < 1e-9",
           t0, 60.0)


def test_criterion_7_fractional_operator_laws():
    t0 = time.time()
    xs = np.linspace(-2.0, 2.0, 20)
    eigen = 0.0
    for lam in (0.5, 1.0, 2.0, 4.0):
        f = Exponential(lam)
        for nu in (0.5, 1.5, 2.5):
            got = frac_derivative(f, nu, xs, CFG)
            eigen = max(eigen, rel_error(got, lam ** nu * np.exp(lam * xs)))

    probe = np.linspace(-1.0, 1.0, 7)
    semigroup = 0.0
    for g in FAMILY:
        for mu, nu in ((0.25, 0.25), (0.5, 0.5), (0.3, 0.4)):
            inner = materialize(
                lambda x, g=g, mu=mu: weyl_integral(g, mu, x, CFG),
                decay_like=g, decay_scale=4.0,
            )
            semigroup = max(semigroup, rel_error(
                weyl_integral(inner, nu, probe, CFG),
                weyl_integral(g, mu + nu, probe, CFG),
            ))

    half_twice = 0.0
    for f in FAMILY:
        inner = materialize(
            lambda x, f=f: frac_derivative(f, 0.5, x, CFG),
            decay_like=f, decay_scale=4.0, numeric_fallback=True,
        )
        half_twice = max(half_twice, rel_error(
            frac_derivative(inner, 0.5, probe, CFG),
            np.asarray(f.derivative(1, probe)),
            floor=1e-3,
        ))

    f = Exponential(1.0)
    integer = 0.0
    for nu in (1, 2, 3):
        got = weyl_integral(derivative_view(f, nu + 1), 1.0, xs, CFG)
        integer = max(integer, rel_error(got, np.exp(xs)))

    ok = eigen < 1e-7 and semigroup < 1e-6 and half_twice < 1e-5 and integer < 1e-9
    report(7, "fractional_operator_laws", ok,
           f"eigen {eigen:.2e} < 1e-7, semigroup {semigroup:.2e} < 1e-6, "
           f"half-twice {half_twice:.2e} < 1e-5, integer {integer:.2e} < 1e-9",
           t0, 30.0)


def test_criterion_8_selftest_determinism():
    t0 = time.time()
    runs = [
        subprocess.run(
            [sys.executable, "-m", "fraclamb.cli", "selftest"],
            capture_output=True, env=subprocess_env(),
        )
        for _ in range(2)
    ]
    identical = runs[0].stdout == runs[1].stdout
    ok = identical and runs[0].returncode == 0 and runs[1].returncode == 0
    report(8, "selftest_determinism", ok,
           f"byte-identical={identical}, exit codes "
           f"{runs[0].returncode}/{runs[1].returncode}", t0, 120.0)
