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
import functools
import json
import math
import re
import sys

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
from .fractional_ops import derivative_view, frac_derivative, weyl_integral
from .function_model import (
    CallableFunction,
    Exponential,
    GaussTail,
    GridFunction,
    ShiftedGaussian,
    SmoothFunction,
    check_window,
    materialize,
    sample,
)
from .lamb_solver import (REQUIRED_DATUM, VARIANTS, PosDefMatrix, ProblemSpec, solve_classic,
                          solve_ndim, solve_power, solve_problem, solve_quadform)
from .special_functions import gamma, sphere_volume

__all__ = ["main", "parse_function"]

_DEFAULT_THRESHOLD = 1e-5
# The default quadform gate: a relative floor plus this many standard errors
# per probe. The SE has at least 15 degrees of freedom (16 lattice shifts).
_MC_THRESHOLD_FLOOR = 1e-6
_MC_SE_MULTIPLE = 6.0

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


def _window_type(text: str) -> tuple[float, float]:
    try:
        left, _, right = text.partition(":")
        a, b = float(left), float(right)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"window must be 'a:b' with numbers, got {text!r}"
        ) from None
    try:
        return check_window(a, b)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# A token that reads as a negative number or range: '-' then a digit or '.'.
_DASH_VALUE = re.compile(r"-[\d.]")


def _merge_dash_values(argv: list[str]) -> list[str]:
    # Lets '--window -1:1' parse; argparse would otherwise read '-1:1' as a
    # flag. Joining with '=' keeps the value attached to its option. Only a
    # negative number or range is joined, so a flag is never taken for the
    # value of the option before it.
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("-") and i + 1 < len(argv) and _DASH_VALUE.match(argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _add_common(p: argparse.ArgumentParser, with_grid: bool):
    p.add_argument("--variant", required=True, choices=VARIANTS)
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
    p.add_argument("--mc-samples", type=int, default=DEFAULT_CONFIG.mc_samples,
                   help="integrand values per quadform probe, a budget: the lattice "
                        "rule uses N q <= this many")
    p.add_argument("--seed", type=str, default=None)
    p.add_argument("--output", default=None, help="write artifact here instead of stdout")
    p.add_argument("--format", choices=["csv", "json"], default="csv")


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser unchanged.
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
        return DEFAULT_CONFIG.mc_seed
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
    except OSError as exc:
        raise DomainError(f"cannot read matrix file {raw}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError for binary files
        raise DomainError(f"matrix file {raw} is not valid JSON: {exc}") from None
    entries = [data]  # np.array would read true as 1.0 and "2" as 2.0
    for entry in entries:
        if isinstance(entry, list):
            entries += entry
        elif isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise DomainError(f"matrix file {raw} holds {json.dumps(entry)}, not a JSON number")
    return PosDefMatrix(data)


_DATUM_FLAGS = {"n": "-n/--dimension", "m": "-m/--power", "A": "--matrix"}


def _spec_from_args(args) -> ProblemSpec:
    data = {"n": args.dimension, "m": args.m,
            "A": None if args.matrix is None else _load_matrix(args.matrix)}
    needed = REQUIRED_DATUM.get(args.variant)
    if needed is not None and data[needed] is None:
        raise DomainError(f"{args.variant} requires {_DATUM_FLAGS[needed]}")
    return ProblemSpec(variant=args.variant, **data)


def _emit(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write {path}: {exc.strerror}") from None


def _grid_payload(grid: GridFunction, fmt: str) -> str:
    return grid.to_csv() if fmt == "csv" else grid.to_json() + "\n"


def _cmd_solve(args, spec: ProblemSpec, f: SmoothFunction, cfg: QuadratureConfig) -> int:
    # Checked before solve_problem, whose derivative-order check would
    # otherwise report first.
    if args.count < 2:
        raise DomainError(f"count must be >= 2, got {args.count}")
    u = solve_problem(spec, f, cfg)
    grid = sample(u, args.window[0], args.window[1], args.count)
    _emit(_grid_payload(grid, args.format), args.output)
    return 0


def _cmd_forward(args, spec: ProblemSpec, f: SmoothFunction, cfg: QuadratureConfig) -> int:
    image = materialize(lambda xs: forward(spec, f, xs, cfg)[0],
                        label=f"forward[{spec.variant}]({f.label})")
    grid = sample(image, args.window[0], args.window[1], args.count)
    _emit(_grid_payload(grid, args.format), args.output)
    return 0


def _cmd_verify(args, spec: ProblemSpec, f: SmoothFunction, cfg: QuadratureConfig) -> int:
    threshold = args.threshold
    if threshold is not None and not 0.0 < threshold < math.inf:
        raise DomainError(f"threshold must be finite and > 0, got {threshold}")
    report = verify(spec, f, args.window, args.probes, cfg)
    if threshold is None:
        if report.std_errors is not None:
            # Each SE relative to its own |f(x)|, as the residuals are.
            f_abs = [abs(fx) for _, fx, _, _ in report.rows]
            floor = max(1e-300 * max(f_abs), 1e-300)
            threshold = _MC_THRESHOLD_FLOOR + _MC_SE_MULTIPLE * max(
                se / max(fa, floor) for fa, se in zip(f_abs, report.std_errors))
        else:
            threshold = _DEFAULT_THRESHOLD
    payload = report.to_csv() if args.format == "csv" else report.to_json() + "\n"
    _emit(payload, args.output)
    # NaN compares false, so a non-finite residual or standard error fails.
    passed = report.max_rel_residual < threshold and all(
        math.isfinite(se) for se in report.std_errors or ())
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
    sph = max(
        abs(sphere_volume(n) * 0.5 * gamma(n / 2.0) / math.pi ** (n / 2.0) - 1.0)
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
        # D^(-1) f^(nu+1), a non-canonical split of the integer order nu
        got = weyl_integral(derivative_view(g, nu + 1), 1.0, xs, cfg)
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
        inner = CallableFunction(
            lambda x, f=f: frac_derivative(f, 0.5, x, cfg),
            derivative=lambda k, x, f=f: frac_derivative(f, k + 0.5, x, cfg),
            derivative_order=1,
            tail_bound=lambda L, f=f: 4.0 * f.tail_bound(L),
            value_tail_bound=lambda L, f=f: 4.0 * f.value_tail_bound(L),
            label="half",
        )
        lhs = np.asarray(frac_derivative(inner, 0.5, probe, cfg))
        rhs = np.asarray(f.derivative(1, probe))
        scale = float(np.max(np.abs(rhs)))
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-3 * scale))))
    yield "half_derivative_twice", worst, 1e-5

    worst = 0.0
    for lam in (1.0, 2.0, 4.0):
        f = Exponential(lam)
        got, _ = forward(ProblemSpec(variant="classic"), solve_classic(f, cfg), probe, cfg)
        worst = max(worst, float(np.max(np.abs(got / f(probe) - 1.0))))
    yield "classic_round_trip", worst, 1e-6

    worst = 0.0
    for n in range(1, 7):
        for f in (Exponential(1.0), GaussTail(1.0, 0.0)):
            spec = ProblemSpec(variant="symmetric_ndim", n=n)
            got, _ = forward(spec, solve_ndim(f, n, cfg), probe, cfg)
            worst = max(worst, float(np.max(np.abs(got / f(probe) - 1.0))))
    yield "ndim_round_trip", worst, 1e-6

    f = Exponential(1.0)
    worst = 0.0
    for n in (2, 4):
        direct = solve_ndim(f, n, cfg)
        # D^(-1) f^(m+1) with m = n/2, against the direct pi^(-m) f^(m)
        frac = math.pi ** (-n / 2.0) * weyl_integral(derivative_view(f, n // 2 + 1), 1.0,
                                                     probe, cfg)
        worst = max(worst, float(np.max(np.abs(frac / direct(probe) - 1.0))))
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


def _cmd_selftest(cfg: QuadratureConfig, output: str | None) -> int:
    lines = []
    failures = 0
    total = 0
    for name, observed, limit in _selftest_checks(cfg):
        total += 1
        ok = observed < limit
        if not ok:
            failures += 1
        lines.append(
            f"{'PASS' if ok else 'FAIL'} {name} observed={observed:.17g} limit={limit:.17g}"
        )
    lines.append(f"selftest: {total - failures}/{total} passed "
                 f"(seed={cfg.mc_seed} mc_samples={cfg.mc_samples})")
    _emit("\n".join(lines) + "\n", output)
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(_merge_dash_values(argv))
    # Non-finite values are caught and named where they arise, so numpy's
    # own warnings would only repeat them on stderr.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            cfg = QuadratureConfig(tol=args.tol, mc_samples=args.mc_samples,
                                   mc_seed=_resolve_seed(args.seed))
            if args.command == "selftest":
                return _cmd_selftest(cfg, args.output)
            command = {"solve": _cmd_solve, "forward": _cmd_forward, "verify": _cmd_verify}
            return command[args.command](args, _spec_from_args(args), parse_function(args.function), cfg)
    except (SelectorError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FracLambError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:  # math.exp in the function's own code
        print(f"numerical error: {getattr(args, 'function', args.command)}: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy's, for a grid or batch too large to allocate
        print(f"numerical error: out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
