"""Seeded workload decks and the independent correctness checks for them.

A deck is the fixed list of CLI invocations one workload cycles through.
Its structure (which variants, functions and grid sizes appear, and how
often) is fixed per workload, so different seeds give comparable mixes;
the seed draws every parameter inside that structure. The program only
ever sees the generated argv and, for quadform, the generated matrix files.

The checks never call into fraclamb: right-hand sides, closed-form
solutions and the Weyl-integral oracle are written here from the
formulas, and evaluated in mpmath where a float formula would not be
independent enough.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("verify", "solve_grid")

# verify: the CLI default probe count; MC uses fewer probes, each costing a
# full Monte Carlo run (check_verify gives the false-alarm arithmetic).
VERIFY_PROBES = 11
MC_PROBES = 3
MC_SAMPLES = 50_000
# The CLI's default quadform gate is 4 SE per probe, a two-sided test that
# rejects a sound estimate now and then by chance, so the op's exit code
# would hinge on the seed. The benchmark passes this loose relative gate
# instead and judges each estimate by its own z-test below.
MC_CLI_THRESHOLD = 1.0
SOLVE_COUNTS = (2001, 20001)

# Independent gates. A deterministic output passes when its error against
# the reference is below these; both sit far above the errors the
# solvers reach (<= 1e-9) and far below a 1e-3 mistake in a constant.
VERIFY_REL_GATE = 1e-5  # the CLI's own default threshold
SOLVE_REL_GATE = 1e-7
MC_POOLED_GATE = 5.0  # |sum(z)| / sqrt(probes), z = (forward - f) / SE
MC_PROBE_GATE = 6.0  # |z| of any single probe
ORACLE_NODES = 3
_REL_FLOOR = 2.0 ** -53  # digits are capped at -log10 of this
_DPS = 25  # mpmath working precision of the references


@dataclass(frozen=True)
class Draw:
    """One deck entry: a CLI invocation plus what the check needs."""

    index: int
    group: str  # trace breakdown key, e.g. "gaussian" or "n=3"
    argv: tuple
    family: str  # exp | gauss_tail | shifted_gaussian
    params: dict
    variant: str = "classic"
    order: float = 0.5  # nu of the solution u = C * D^nu f
    const: float = 1.0  # C
    window: tuple = (0.0, 1.0)
    count: int = 0  # solve grid size or verify probe count
    oracle_nodes: tuple = ()  # solve: grid indices checked against mpmath

    @property
    def label(self) -> str:
        return " ".join(self.argv)


# ---------------------------------------------------------------------------
# Reference formulas
# ---------------------------------------------------------------------------

def f_ref(family: str, p: dict, x) -> float:
    """Right-hand side f(x), evaluated in mpmath."""
    # mpmath is imported only where a reference needs it, so building a
    # deck (and so the set-up probe) pays for the program's imports alone.
    import mpmath as mp

    with mp.workdps(_DPS):
        x = mp.mpf(x)
        if family == "exp":
            return float(mp.exp(p["lambda"] * x))
        if family == "gauss_tail":
            lam, c = mp.mpf(p["lambda"]), mp.mpf(p["c"])
            return float(mp.exp(lam * x) / (1 + mp.exp(lam * (x - c))))
        t = (x - p["c"]) / mp.mpf(p["sigma"])
        return float(mp.exp(-t * t / 2))


def _f_derivative(family: str, p: dict, k: int):
    """f^(k) for k in {1, 2} as an mpmath callable (closed forms)."""
    import mpmath as mp

    if family == "gauss_tail":
        lam, c = mp.mpf(p["lambda"]), mp.mpf(p["c"])

        def gk(xi):
            e = mp.exp(lam * (xi - c))
            if k == 1:
                return lam * mp.exp(lam * xi) / (1 + e) ** 2
            return lam ** 2 * mp.exp(lam * xi) * (1 - e) / (1 + e) ** 3
        return gk
    if family == "shifted_gaussian":
        sigma, c = mp.mpf(p["sigma"]), mp.mpf(p["c"])

        def gk(xi):
            t = (xi - c) / sigma
            he = t if k == 1 else t * t - 1
            return (-1) ** k * he / sigma ** k * mp.exp(-t * t / 2)
        return gk
    lam = mp.mpf(p["lambda"])
    return lambda xi: lam ** k * mp.exp(lam * xi)


def u_oracle(draw: Draw, x: float) -> float:
    """u(x) = C * D^nu f(x) by mpmath quadrature of the Weyl integral.

    D^nu f = D^(-mu) f^(k) with k = ceil(nu) and mu = k - nu, and
    D^(-mu) g(x) = (1/Gamma(mu)) int_0^inf g(x - t) t^(mu - 1) dt.
    """
    import mpmath as mp

    with mp.workdps(_DPS):
        nu = mp.mpf(draw.order)
        k = int(math.ceil(draw.order - 1e-12))
        mu = k - nu
        gk = _f_derivative(draw.family, draw.params, k)
        x = mp.mpf(x)
        if mu == 0:
            return float(draw.const * gk(x))
        center = mp.mpf(draw.params.get("c", 0.0))
        scale = mp.mpf(draw.params.get("sigma", 1.0 / draw.params.get("lambda", 1.0)))
        # Break points around the integrand's bulk help tanh-sinh converge.
        pts = [mp.mpf(0)]
        for p in (x - center - 2 * scale, x - center, x - center + 2 * scale):
            if p > pts[-1]:
                pts.append(p)
        pts += [pts[-1] + 40 * scale, mp.inf]
        val = mp.quad(lambda t: gk(x - t) * t ** (mu - 1), pts) / mp.gamma(mu)
        return float(draw.const * val)


def u_exp_closed_form(draw: Draw, xs: np.ndarray) -> np.ndarray:
    """u for f = exp(lambda x): C * lambda^nu * exp(lambda x)."""
    lam = draw.params["lambda"]
    return draw.const * lam ** draw.order * np.exp(lam * xs)


def _solution_constants(variant: str, n: int = 1, m: int = 2) -> tuple[float, float]:
    """(nu, C) with u = C * D^nu f, from the equations' closed forms."""
    if variant == "classic":
        return 0.5, 2.0 / math.sqrt(math.pi)
    if variant == "power":
        return 1.0 / m, 1.0 / math.gamma(1.0 + 1.0 / m)
    return n / 2.0, math.pi ** (-n / 2.0)


# ---------------------------------------------------------------------------
# Deck generation
# ---------------------------------------------------------------------------

FAMILIES = ("exp", "gauss_tail", "shifted_gaussian")


def _lhs(rng: np.random.Generator, k: int, dims: int) -> np.ndarray:
    """k points in [0, 1)^dims, one in each of the k equal slices of every
    dimension (Latin hypercube). Draws within one stratum of the deck then
    cover each parameter's range on every seed, which keeps a deck's
    extremes, and so its worst-case metrics, comparable across seeds."""
    perms = np.argsort(rng.random((dims, k)), axis=1).T
    return (perms + rng.random((k, dims))) / k


def _lerp(lo: float, hi: float, t: float) -> float:
    # Rounded so the CLI and the checks parse the same decimal.
    return round(lo + (hi - lo) * float(t), 3)


def _function(family: str, u) -> tuple[str, dict]:
    """A selector string and its parameters from two uniforms."""
    if family == "exp":
        p = {"lambda": _lerp(0.5, 2.0, u[0])}
        return f"exp:lambda={p['lambda']}", p
    if family == "gauss_tail":
        p = {"lambda": _lerp(0.5, 2.0, u[0]), "c": _lerp(-1.0, 1.0, u[1])}
        return f"gauss_tail:lambda={p['lambda']}:c={p['c']}", p
    p = {"sigma": _lerp(0.5, 2.0, u[0]), "c": _lerp(-1.0, 1.0, u[1])}
    return f"shifted_gaussian:sigma={p['sigma']}:c={p['c']}", p


def _window(p: dict, u) -> tuple[float, float]:
    # [c - (1..3) s, c + (0.5..1.5) s] with s = sigma for the Gaussian and 1
    # otherwise. f stays above ~1e-2 of its window maximum, away from the
    # underflow regime where relative residuals lose meaning. The right end
    # stops short of lambda (b - c) ~ 4, where gauss_tail's Weyl integrals
    # need a fourth refinement level and peak memory doubles: a deck's peak
    # memory would then hinge on whether its seed drew that corner.
    s = p.get("sigma", 1.0)
    c = p.get("c", 0.0)
    return round(c - _lerp(1.0, 3.0, u[0]) * s, 3), round(c + _lerp(0.5, 1.5, u[1]) * s, 3)


def _variant_args(variant: str, n: int, m: int) -> list[str]:
    if variant == "power":
        return ["--variant", "power", "-m", str(m)]
    if variant == "symmetric_ndim":
        return ["--variant", "symmetric_ndim", "-n", str(n)]
    return ["--variant", variant]


def _spd_matrix(rng: np.random.Generator, eigenvalues) -> list[list[float]]:
    """A random rotation of diag(eigenvalues), exactly symmetric."""
    n = len(eigenvalues)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = q @ np.diag(eigenvalues) @ q.T
    a = np.round(0.5 * (a + a.T), 6)
    return [[float(v) for v in row] for row in a]


VERIFY_VARIANTS = [("classic", 1, 2), ("power", 1, 3), ("power", 1, 4)] + [
    ("symmetric_ndim", n, 2) for n in (1, 2, 3, 5)]
SOLVE_VARIANTS = [("classic", 1, 2), ("power", 1, 3), ("symmetric_ndim", 2, 2),
                  ("symmetric_ndim", 3, 2)]
# Quadform draws per dimension. The verify deck then holds 10 cheap ops
# (exp and n=2), 14 Gaussian-family ops and 8 costly n=3 ops, so its
# median op lies mid-way through the Gaussian group and its p90 inside the
# n=3 group. A median at the edge between two groups of very different
# cost would swing with whichever draws sit there.
MC_DRAWS = {2: 3, 3: 8}


def build_deck(workload: str, seed: int, workdir: str) -> list[Draw]:
    """The seeded deck for ``workload``; matrix files go under ``workdir``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    draws = []

    if workload == "verify":
        # Deterministic certificates: 3 functions x 7 variants, one draw
        # each; 11 probes (the CLI default).
        for family in FAMILIES:
            for (variant, n, m), u in zip(VERIFY_VARIANTS, _lhs(rng, len(VERIFY_VARIANTS), 4)):
                sel, p = _function(family, u[:2])
                a, b = _window(p, u[2:])
                argv = ["verify", *_variant_args(variant, n, m), "--function", sel,
                        "--window", f"{a}:{b}", "--format", "json"]
                draws.append(dict(
                    group="exp" if family == "exp" else "gaussian", argv=argv,
                    family=family, params=p, variant=variant, window=(a, b),
                    count=VERIFY_PROBES))
        # Stochastic certificates: quadform draws of exp with a random SPD
        # matrix whose eigenvalues lie in [1, 2], a fixed sample count and
        # its own seed.
        os.makedirs(workdir, exist_ok=True)
        for n, k in MC_DRAWS.items():
            for u in _lhs(rng, k, 3 + n):
                sel, p = _function("exp", u[:1])
                a, b = _window(p, u[1:3])
                path = os.path.join(workdir, f"matrix_{len(draws)}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(_spd_matrix(rng, 1.0 + u[3:]), fh)
                argv = ["verify", "--variant", "quadform", "--matrix", path,
                        "--function", sel, "--window", f"{a}:{b}",
                        "--probes", str(MC_PROBES), "--mc-samples", str(MC_SAMPLES),
                        "--threshold", str(MC_CLI_THRESHOLD),
                        "--seed", str(int(rng.integers(0, 2 ** 63))), "--format", "json"]
                draws.append(dict(group=f"n={n}", argv=argv, family="exp", params=p,
                                  variant="quadform", window=(a, b), count=MC_PROBES))
    else:
        # 3 functions x (a 20001-point grid for each of the 4 variants and
        # one 2001-point classic grid). The large grids carry the time.
        cells = [(v, SOLVE_COUNTS[1]) for v in SOLVE_VARIANTS] + [(SOLVE_VARIANTS[0], SOLVE_COUNTS[0])]
        for family in FAMILIES:
            for ((variant, n, m), count), u in zip(cells, _lhs(rng, len(cells), 4)):
                nu, const = _solution_constants(variant, n, m)
                sel, p = _function(family, u[:2])
                a, b = _window(p, u[2:])
                argv = ["solve", *_variant_args(variant, n, m), "--function", sel,
                        "--window", f"{a}:{b}", "--count", str(count)]
                nodes = () if family == "exp" else tuple(
                    int(i) for i in rng.choice(count, ORACLE_NODES, replace=False))
                draws.append(dict(
                    group=f"count={count}", argv=argv, family=family, params=p,
                    variant=variant, order=nu, const=const, window=(a, b),
                    count=count, oracle_nodes=nodes))

    order = rng.permutation(len(draws))
    return [Draw(index=i, argv=tuple(draws[j].pop("argv")), **draws[j])
            for i, j in enumerate(order)]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    """Outcome of one op's independent check.

    ``errors`` holds one relative error scale per checked value: the error
    against the reference for deterministic ops, SE/|f| for Monte Carlo.
    """

    ok: bool
    reason: str = ""
    errors: list = field(default_factory=list)

    @property
    def max_error(self) -> float:
        return max(self.errors) if self.errors else math.inf


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want) if want != 0.0 else abs(got)


def _probe_xs(window, count) -> np.ndarray:
    a, b = window
    return a + np.arange(count) * ((b - a) / (count - 1))


def check_verify(draw: Draw, rc: int, stdout: str) -> CheckResult:
    """Recompute each residual from the artifact rows with our own f.

    Monte Carlo rows are judged by z = (forward - f) / SE: the op's pooled
    sum(z) / sqrt(probes) detects a bias (a 5 SE shift gives 8.7), and a
    single |z| above 6 a wrong probe; by chance either fires far less than
    once per million probes.
    """
    mc = draw.variant == "quadform"
    if rc != 0:
        return CheckResult(False, f"exit code {rc}")
    report = json.loads(stdout)
    rows = report["rows"]
    if len(rows) != draw.count:
        return CheckResult(False, f"{len(rows)} rows, expected {draw.count}")
    errors, zs = [], []
    for i, (row, x) in enumerate(zip(rows, _probe_xs(draw.window, draw.count))):
        if abs(row["x"] - x) > 1e-12 * (1.0 + abs(x)):
            return CheckResult(False, f"probe {i} at x={row['x']!r}, expected {x!r}")
        fx = f_ref(draw.family, draw.params, row["x"])
        if _rel(row["f"], fx) > 1e-12:
            return CheckResult(False, f"artifact f={row['f']!r} at x={row['x']!r}, want {fx!r}")
        if not mc:
            errors.append(max(_rel(row["forward"], fx), _REL_FLOOR))
            continue
        se = float(report["std_errors"][i])
        if not se > 0.0:
            return CheckResult(False, f"standard error {se!r} at x={row['x']!r}")
        zs.append((row["forward"] - fx) / se)
        errors.append(se / abs(fx))
    if not mc:
        if max(errors) > VERIFY_REL_GATE:
            return CheckResult(False, f"relative residual {max(errors):.3g} > {VERIFY_REL_GATE}",
                               errors)
        return CheckResult(True, "", errors)
    pooled = sum(zs) / math.sqrt(len(zs))
    worst = max(abs(z) for z in zs)
    stats = f"pooled z {pooled:.2f}, max |z| {worst:.2f}"
    if abs(pooled) > MC_POOLED_GATE or worst > MC_PROBE_GATE:
        return CheckResult(False, f"forward - f is off by {stats} (SE units)", errors)
    return CheckResult(True, "", errors)


def check_solve(draw: Draw, rc: int, stdout: str, oracle_cache: dict) -> CheckResult:
    """exp: the closed form at every node. Others: the mpmath oracle at a
    few seeded nodes, computed once per draw and cached by node. Only the
    rows checked are parsed; the row count and the end nodes always are."""
    if rc != 0:
        return CheckResult(False, f"exit code {rc}")
    header, _, body = stdout.partition("\n")
    rows = body.split()
    if header != "x,value" or len(rows) != draw.count:
        return CheckResult(False, f"CSV header {header!r} with {len(rows)} rows, "
                                  f"expected 'x,value' with {draw.count}")
    idx = np.arange(draw.count) if draw.family == "exp" else np.array(
        [0, draw.count - 1, *draw.oracle_nodes])
    data = np.array(",".join(rows[i] for i in idx).split(","), dtype=float).reshape(-1, 2)
    xs, us = data[:, 0], data[:, 1]
    a, b = draw.window
    if np.max(np.abs(xs - (a + idx * ((b - a) / (draw.count - 1))))) > 1e-12 * (1.0 + abs(a) + abs(b)):
        return CheckResult(False, "grid abscissae differ from the requested window")
    if draw.family == "exp":
        ref = u_exp_closed_form(draw, xs)
        errors = [max(float(np.max(np.abs(us - ref) / np.abs(ref))), _REL_FLOOR)]
    else:
        errors = []
        for i, x, u in zip(idx[2:], xs[2:], us[2:]):
            key = (draw.index, int(i))
            if key not in oracle_cache:
                oracle_cache[key] = u_oracle(draw, float(x))
            errors.append(max(_rel(float(u), oracle_cache[key]), _REL_FLOOR))
    if max(errors) > SOLVE_REL_GATE:
        return CheckResult(False, f"relative error {max(errors):.3g} > {SOLVE_REL_GATE}", errors)
    return CheckResult(True, "", errors)


def check(draw: Draw, rc: int, stdout: str, oracle_cache: dict) -> CheckResult:
    if draw.argv[0] == "solve":
        return check_solve(draw, rc, stdout, oracle_cache)
    return check_verify(draw, rc, stdout)
