"""Command-line front end.

Four subcommands:

* ``solve``: sample the solution u of the chosen equation on a grid;
* ``forward``: apply the forward integral operator to a named function;
* ``verify``: solve, push the solution back through the forward operator,
  and report residuals (exit 1 when above threshold);
* ``selftest``: run the deterministic invariant battery (exit 1 on failure).

Exit codes: 0 success, 1 residual/selftest failure, 2 parse or validation
error, 3 numerical error. stdout carries only the data artifact; all
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .config import QuadratureConfig, DEFAULT_CONFIG
from .errors import DomainError, FracLambError, SelectorError
from .forward_verifier import (
    forward,
    forward_power,
    forward_quadform_mc,
    forward_radial,
    forward_montecarlo,
    verify,
)
from .fractional_ops import FractionalOrder, frac_derivative, weyl_integral
from .function_model import (
    Exponential,
    GaussTail,
    GridFunction,
    ShiftedGaussian,
    SmoothFunction,
    materialize,
    sample,
)
from .lamb_solver import PosDefMatrix, ProblemSpec, solve_classic, solve_ndim, solve_power, solve_problem
from .special_functions import beta, gamma, sphere_volume

__all__ = ["main", "parse_function", "CliRequest"]

_DEFAULT_THRESHOLD = 1e-5
_MC_THRESHOLD_FLOOR = 1e-4

_FUNCTION_KEYS = {
    "exp": {"lambda"},
    "gauss_tail": {"lambda", "c"},
    "shifted_gaussian": {"sigma", "c"},
}


def parse_function(selector: str) -> SmoothFunction:
    """Build a test-family member from ``name(:key=value)*``.

    Names: exp, gauss_tail, shifted_gaussian. Keys: lambda (default 1),
    c (default 0), sigma (default 1).
    """
    parts = selector.split(":")
    name = parts[0].strip()
    if name not in _FUNCTION_KEYS:
        raise SelectorError(
            f"unknown function {name!r}; expected one of {sorted(_FUNCTION_KEYS)}"
        )
    params = {"lambda": 1.0, "c": 0.0, "sigma": 1.0}
    for token in parts[1:]:
        if "=" not in token:
            raise SelectorError(f"malformed parameter {token!r}; expected key=value")
        key, _, raw = token.partition("=")
        key = key.strip()
        if key not in _FUNCTION_KEYS[name]:
            raise SelectorError(f"function {name!r} does not take key {key!r}")
        try:
            params[key] = float(raw)
        except ValueError:
            raise SelectorError(f"could not parse value in {token!r}") from None
    try:
        if name == "exp":
            return Exponential(lam=params["lambda"])
        if name == "gauss_tail":
            return GaussTail(lam=params["lambda"], c=params["c"])
        return ShiftedGaussian(sigma=params["sigma"], c=params["c"])
    except DomainError as exc:
        raise SelectorError(str(exc)) from exc


@dataclass(frozen=True)
class CliRequest:
    """A validated invocation: command, problem, function, grid, output."""

    command: str
    spec: ProblemSpec | None
    function: SmoothFunction | None
    window: tuple[float, float] | None
    count: int
    probes: int
    threshold: float | None
    output_path: str | None
    format: str
    cfg: QuadratureConfig


def _window_type(text: str) -> tuple[float, float]:
    try:
        left, _, right = text.partition(":")
        a, b = float(left), float(right)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"window must be 'a:b' with numbers, got {text!r}"
        ) from None
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise argparse.ArgumentTypeError(f"window needs finite a < b, got {text!r}")
    return a, b


_VALUE_FLAGS = {
    "--variant", "--dimension", "--power", "--matrix", "--function",
    "--window", "--count", "--probes", "--tol", "--mc-samples", "--seed",
    "--threshold", "--output", "--format",
}


def _merge_dash_values(argv: list[str]) -> list[str]:
    # Lets '--window -1:1' parse; argparse would otherwise read '-1:1' as a
    # flag. Joining with '=' keeps the value attached to its option.
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _add_common(p: argparse.ArgumentParser, with_grid: bool):
    p.add_argument("--variant", required=True,
                   choices=["classic", "symmetric_ndim", "power", "quadform"])
    p.add_argument("-n", "--dimension", type=int, default=None,
                   help="ambient dimension (symmetric_ndim)")
    p.add_argument("-m", "--power", type=int, default=None, dest="m",
                   help="exponent m >= 1 (power variant)")
    p.add_argument("--matrix", default=None,
                   help="path to a JSON row-major matrix, or a bare number for n=1")
    p.add_argument("--function", required=True,
                   help="selector like exp:lambda=2 or shifted_gaussian:sigma=1:c=0")
    p.add_argument("--window", required=True, type=_window_type, metavar="A:B")
    if with_grid:
        p.add_argument("--count", type=int, default=101, help="grid node count")
    else:
        p.add_argument("--probes", type=int, default=11, help="probe point count")
        p.add_argument("--threshold", type=float, default=None,
                       help="max relative residual for exit 0")
    p.add_argument("--tol", type=float, default=DEFAULT_CONFIG.tol)
    p.add_argument("--mc-samples", type=int, default=DEFAULT_CONFIG.mc_samples)
    p.add_argument("--seed", type=str, default=None)
    p.add_argument("--output", default=None, help="write artifact here instead of stdout")
    p.add_argument("--format", choices=["csv", "json"], default="csv")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraclamb",
        description="Solve and certify Lamb-Bateman-type integral equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("solve", help="sample the solution on a grid"), with_grid=True)
    _add_common(sub.add_parser("forward", help="apply the forward operator on a grid"), with_grid=True)
    _add_common(sub.add_parser("verify", help="round-trip residual certificate"), with_grid=False)
    st = sub.add_parser("selftest", help="deterministic invariant battery")
    st.add_argument("--seed", type=str, default=None)
    st.add_argument("--mc-samples", type=int, default=DEFAULT_CONFIG.mc_samples)
    st.add_argument("--tol", type=float, default=DEFAULT_CONFIG.tol)
    st.add_argument("--output", default=None)
    return parser


def _resolve_seed(raw: str | None) -> int:
    if raw is None:
        env = os.environ.get("FRACLAMB_SEED")
        if env is None:
            return DEFAULT_CONFIG.mc_seed
        raw = env
    try:
        return int(raw, 0)
    except ValueError:
        raise DomainError(f"seed must be an integer, got {raw!r}") from None


def _load_matrix(raw: str) -> PosDefMatrix:
    try:
        value = float(raw)
    except ValueError:
        value = None
    if value is not None:
        return PosDefMatrix([[value]])
    try:
        with open(raw, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise DomainError(f"matrix file not found: {raw}") from None
    except json.JSONDecodeError as exc:
        raise DomainError(f"matrix file {raw} is not valid JSON: {exc}") from None
    return PosDefMatrix(data)


def _spec_from_args(args) -> ProblemSpec:
    variant = args.variant
    if variant == "classic":
        return ProblemSpec(variant="classic")
    if variant == "symmetric_ndim":
        if args.dimension is None:
            raise DomainError("symmetric_ndim requires -n/--dimension")
        return ProblemSpec(variant="symmetric_ndim", n=args.dimension)
    if variant == "power":
        if args.m is None:
            raise DomainError("power requires -m/--power")
        return ProblemSpec(variant="power", m=args.m)
    if args.matrix is None:
        raise DomainError("quadform requires --matrix")
    return ProblemSpec(variant="quadform", A=_load_matrix(args.matrix))


def _request_from_args(args) -> CliRequest:
    cfg = QuadratureConfig(
        tol=args.tol,
        mc_samples=getattr(args, "mc_samples", DEFAULT_CONFIG.mc_samples),
        mc_seed=_resolve_seed(args.seed),
    )
    if args.command == "selftest":
        return CliRequest(command="selftest", spec=None, function=None, window=None,
                          count=0, probes=0, threshold=None,
                          output_path=args.output, format="text", cfg=cfg)
    spec = _spec_from_args(args)
    f = parse_function(args.function)
    return CliRequest(
        command=args.command,
        spec=spec,
        function=f,
        window=args.window,
        count=getattr(args, "count", 0),
        probes=getattr(args, "probes", 0),
        threshold=getattr(args, "threshold", None),
        output_path=args.output,
        format=args.format,
    cfg=cfg,
    )


def _emit(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _grid_payload(grid: GridFunction, fmt: str) -> str:
    return grid.to_csv() if fmt == "csv" else grid.to_json() + "\n"


def _cmd_solve(req: CliRequest) -> int:
    if req.count < 2:
        raise DomainError(f"count must be >= 2, got {req.count}")
    u = solve_problem(req.spec, req.function, req.cfg)
    grid = sample(u, req.window[0], req.window[1], req.count)
    _emit(_grid_payload(grid, req.format), req.output_path)
    return 0


def _cmd_forward(req: CliRequest) -> int:
    if req.count < 2:
        raise DomainError(f"count must be >= 2, got {req.count}")
    a, b = req.window
    step = (b - a) / (req.count - 1)
    nodes = a + np.arange(req.count) * step
    values = [forward(req.spec, req.function, float(x), req.cfg)[0] for x in nodes]
    grid = GridFunction(x_start=a, x_step=step, values=np.array(values))
    _emit(_grid_payload(grid, req.format), req.output_path)
    return 0


def _cmd_verify(req: CliRequest) -> int:
    report = verify(req.spec, req.function, req.window, req.probes, req.cfg)
    threshold = req.threshold
    if threshold is None:
        if report.std_errors is not None:
            f_scale = max(abs(fx) for _, fx, _, _ in report.rows)
            f_scale = max(f_scale, 1e-300)
            threshold = max(_MC_THRESHOLD_FLOOR,
                            4.0 * max(se / f_scale for se in report.std_errors))
        else:
            threshold = _DEFAULT_THRESHOLD
    payload = report.to_csv() if req.format == "csv" else report.to_json() + "\n"
    _emit(payload, req.output_path)
    passed = report.max_rel_residual < threshold
    print(
        f"max_rel_residual={report.max_rel_residual:.6g} "
        f"threshold={threshold:.6g} {'PASS' if passed else 'FAIL'}",
        file=sys.stderr,
    )
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# Self test
# ---------------------------------------------------------------------------

def _selftest_checks(cfg: QuadratureConfig):
    """Yield (name, observed, limit) triples; a check passes when
    observed < limit. Everything is deterministic for a fixed cfg."""
    sqrt_pi = math.sqrt(math.pi)

    yield "gamma_half_squared_is_pi", abs(gamma(0.5) ** 2 / math.pi - 1.0), 1e-13
    yield "gamma_at_one", abs(gamma(1.0) - 1.0), 1e-13

    rng = np.random.Generator(np.random.Philox(key=np.array([cfg.mc_seed, 1], dtype=np.uint64)))
    ps = rng.uniform(0.5, 20.0, 200)
    rec = max(abs(gamma(p + 1.0) / (p * gamma(p)) - 1.0) for p in ps)
    yield "gamma_recurrence", rec, 1e-12
    sym = max(abs(beta(p, q) / beta(q, p) - 1.0) for p, q in zip(ps[:100], ps[100:]))
    yield "beta_symmetry", sym, 1e-13

    sph = max(
        abs(sphere_volume(n).value * 0.5 * gamma(n / 2.0) / math.pi ** (n / 2.0) - 1.0)
        for n in range(1, 13)
    )
    yield "sphere_volume_identity", sph, 1e-13

    xs = np.linspace(-2.0, 2.0, 5)
    worst = 0.0
    for lam in (0.5, 1.0, 2.0, 4.0):
        g = Exponential(lam)
        for nu in (0.5, 1.5, 2.5):
            got = frac_derivative(g, nu, xs, cfg)
            want = lam ** nu * np.exp(lam * xs)
            worst = max(worst, float(np.max(np.abs(got / want - 1.0))))
    yield "eigenfunction_law", worst, 1e-7

    worst = 0.0
    g = Exponential(1.0)
    for nu in (1, 2, 3):
        order = FractionalOrder(nu=float(nu), k=nu + 1, mu=1.0)
        got = frac_derivative(g, order, xs, cfg)
        want = np.exp(xs)
        worst = max(worst, float(np.max(np.abs(got / want - 1.0))))
    yield "integer_order_consistency", worst, 1e-9

    probe = np.linspace(-1.0, 1.0, 5)
    worst = 0.0
    for f in (Exponential(1.0), GaussTail(1.0, 0.0)):
        for mu, nu in ((0.25, 0.5), (0.5, 0.5)):
            inner = materialize(
                lambda x, f=f, mu=mu: weyl_integral(f, mu, x, cfg),
                decay_like=f, decay_scale=4.0, label="inner",
            )
            lhs = weyl_integral(inner, nu, probe, cfg)
            rhs = weyl_integral(f, mu + nu, probe, cfg)
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.abs(rhs))))
    yield "semigroup", worst, 1e-6

    worst = 0.0
    for f in (Exponential(1.0), ShiftedGaussian(1.0, 0.0)):
        inner = materialize(
            lambda x, f=f: frac_derivative(f, 0.5, x, cfg),
            decay_like=f, decay_scale=4.0, numeric_fallback=True, label="half",
        )
        lhs = np.asarray(frac_derivative(inner, 0.5, probe, cfg))
        rhs = np.asarray(f.derivative(1, probe))
        scale = float(np.max(np.abs(rhs)))
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-3 * scale))))
    yield "half_derivative_twice", worst, 1e-5

    worst = 0.0
    for lam in (1.0, 2.0, 4.0):
        f = Exponential(lam)
        u = solve_classic(f, cfg)
        for x in probe:
            got = forward_power(u, 2, float(x), cfg)
            worst = max(worst, abs(got / f(float(x)) - 1.0))
    yield "classic_round_trip", worst, 1e-6

    worst = 0.0
    for n in range(1, 7):
        for f in (Exponential(1.0), GaussTail(1.0, 0.0)):
            u = solve_ndim(f, n, cfg)
            for x in probe:
                got = forward_radial(u, n, float(x), cfg)
                worst = max(worst, abs(got / f(float(x)) - 1.0))
    yield "ndim_round_trip", worst, 1e-6

    f = Exponential(1.0)
    worst = 0.0
    for n in (2, 4):
        direct = solve_ndim(f, n, cfg)
        frac = solve_ndim(f, n, cfg, fractional_path=True)
        worst = max(worst, float(np.max(np.abs(frac(probe) / direct(probe) - 1.0))))
    yield "even_direct_vs_fractional", worst, 1e-7

    worst = 0.0
    for m in (1, 2, 3, 4):
        u = solve_power(f, m, cfg)
        got = forward_power(u, m, 0.0, cfg)
        worst = max(worst, abs(got - 1.0))
    yield "power_round_trip", worst, 1e-5

    u2 = solve_power(f, 2, cfg)
    uc = solve_classic(f, cfg)
    yield "power_two_matches_classic", float(np.max(np.abs(u2(probe) / uc(probe) - 1.0))), 1e-7

    u1 = solve_ndim(f, 1, cfg)
    yield "classic_is_twice_ndim_one", float(np.max(np.abs(uc(probe) / (2.0 * u1(probe)) - 1.0))), 1e-9

    from .lamb_solver import solve_quadform
    A = PosDefMatrix([[2.0, 1.0], [1.0, 2.0]])
    uA = solve_quadform(f, A, cfg)
    worst = 0.0
    for c in (2.0, 5.0):
        ucA = solve_quadform(f, PosDefMatrix(c * A.entries), cfg)
        ratio = c ** (A.n / 2.0)
        worst = max(worst, float(np.max(np.abs(ucA(probe) / (ratio * uA(probe)) - 1.0))))
    yield "quadform_det_scaling", worst, 1e-9

    worst_z = 0.0
    for n in (1, 2, 3):
        ref = forward_radial(f, n, 0.0, cfg)
        est, se = forward_montecarlo(f, n, 0.0, cfg)
        worst_z = max(worst_z, abs(est - ref) / se)
    yield "mc_matches_radial_z", worst_z, 4.0

    est, se = forward_quadform_mc(uA, A, 0.0, cfg)
    yield "quadform_round_trip_z", abs(est - f(0.0)) / se, 4.0

    est2, se2 = forward_quadform_mc(uA, A, 0.0, cfg)
    yield "mc_determinism", abs(est - est2) + abs(se - se2), 1e-300

    grid = sample(f, -1.0, 1.0, 9)
    round_csv = GridFunction.from_csv(grid.to_csv())
    round_json = GridFunction.from_json(grid.to_json())
    same = float(
        np.max(np.abs(round_csv.values - grid.values))
        + np.max(np.abs(round_json.values - grid.values))
    )
    yield "grid_serialization_round_trip", same, 1e-300


def _cmd_selftest(req: CliRequest) -> int:
    lines = []
    failures = 0
    total = 0
    for name, observed, limit in _selftest_checks(req.cfg):
        total += 1
        ok = observed < limit
        if not ok:
            failures += 1
        lines.append(
            f"{'PASS' if ok else 'FAIL'} {name} observed={observed:.17g} limit={limit:.17g}"
        )
    lines.append(f"selftest: {total - failures}/{total} passed "
                 f"(seed={req.cfg.mc_seed} mc_samples={req.cfg.mc_samples})")
    _emit("\n".join(lines) + "\n", req.output_path)
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(_merge_dash_values(argv))
    try:
        req = _request_from_args(args)
        if req.command == "solve":
            return _cmd_solve(req)
        if req.command == "forward":
            return _cmd_forward(req)
        if req.command == "verify":
            return _cmd_verify(req)
        return _cmd_selftest(req)
    except (SelectorError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FracLambError, OverflowError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
