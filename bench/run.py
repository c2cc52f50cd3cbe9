"""fraclamb benchmark: end-to-end metrics, or a traced run for per-layer ones.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify --seed 1 --seconds 50 --trace 0

Each workload is a closed loop with one client: one process, no extra
threads, the next op starts when the previous one returns. An op is one
in-process call of the ``fraclamb`` entry point ``fraclamb.cli.main(argv)``
on a seeded deck of generated arguments (see ``workloads.py``). Every op's
output is checked independently, outside the timed region.

``--trace 0`` times untraced rounds of the deck and prints the end-to-end
metrics. ``--trace 1`` alternates untraced and traced rounds, prints the
per-layer metrics and the tracing overhead, writes the spans to
``.bench_out/`` and a per-group self-time table to stderr.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when the run
completed (failed ops are reported, not hidden) and 2 when the checkout
holds no fraclamb sources.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# One client, one thread: numpy's BLAS would otherwise start a thread per
# core, and the timings would then depend on what else the machine runs.
# Set before numpy is first imported (by the program or the checks).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 11
MIN_ROUNDS = 3  # each draw's best time is taken over at least three timings
CERT_TARGET = 1e-3  # relative error of the projected certificate


def _fail(msg: str):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "fraclamb", "cli.py")):
        _fail(f"no fraclamb sources under {SRC}")
    sys.path.insert(0, SRC)
    from fraclamb import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        _fail(f"imported fraclamb from {cli.__file__}, not from {SRC}")
    return cli


def _setup_probe(workload: str, seed: int, workdir: str):
    """What a fresh process pays before its first op: the import of the
    CLI module and the generation of the deck."""
    _import_program()
    import workloads

    workloads.build_deck(workload, seed, workdir)


def measure_setup(workload: str, seed: int, workdir: str) -> float:
    """Median wall time of fresh set-up processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--workdir", workdir]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            _fail(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
    return statistics.median(times)


class Loop:
    """Closed loop over a deck: run an op, time it, check it, record it."""

    def __init__(self, cli, deck, workloads):
        self.cli = cli
        self.deck = deck
        self.w = workloads
        self.oracle_cache: dict = {}
        self.checks: dict[int, object] = {}  # draw index -> latest check
        self.failures: list[tuple] = []  # (draw, check, stderr)
        self.attempted = 0

    def call(self, draw) -> tuple:
        """One CLI invocation: (exit code, stdout, stderr, crash, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        rc, crash = None, ""
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(list(draw.argv))
            except SystemExit as exc:  # argparse rejects bad argv this way
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                crash = traceback.format_exc(limit=3).strip().splitlines()[-1]
            dt = time.perf_counter() - t0
        return rc, out.getvalue(), err.getvalue().strip(), crash, dt

    def run_op(self, draw, tracer=None) -> float:
        if tracer is not None:
            tracer.op = self.attempted
            tracer.groups[self.attempted] = draw.group
            rec = tracer.enter("op")
        rc, out, err, crash, dt = self.call(draw)
        if tracer is not None:
            tracer.exit(rec)
        self.attempted += 1
        if crash:
            result = self.w.CheckResult(False, "exception: " + crash)
        else:
            try:
                result = self.w.check(draw, rc, out, self.oracle_cache)
            except (ValueError, KeyError, IndexError) as exc:
                result = self.w.CheckResult(False, f"unreadable artifact: {exc!r}")
        if not result.ok:
            self.failures.append((draw, result, err))
        self.checks[draw.index] = result
        return dt

    def round(self, times: dict, tracer=None) -> float:
        """One pass over the deck; appends each op's seconds to ``times``."""
        for draw in self.deck:
            times.setdefault(draw.index, []).append(self.run_op(draw, tracer))
        return sum(ts[-1] for ts in times.values())


def _digits(err: float) -> float:
    return -math.log10(err) if err > 0.0 else float("inf")


def _best(times: dict) -> dict:
    """Each draw's fastest time across the run's rounds.

    On a shared VM the CPU's speed can switch between states about 2x
    apart within seconds. Interference only ever adds time, so the fastest
    of several repeats is a steady estimate of an op's cost, where a
    median lands in whichever state held for most of the run.
    """
    return {i: min(ts) for i, ts in times.items()}


def e2e_metrics(loop: Loop, times: dict, setup_s: float) -> dict:
    deck = loop.deck
    best = _best(times)
    checks = [loop.checks[d.index] for d in deck]
    errors = [e for c in checks for e in c.errors]
    # Deterministic ops only: a Monte Carlo op's error scale is its SE. The
    # p10 rather than the min: the single worst draw (always an exp,
    # symmetric_ndim one) swings by 1.5 digits from seed to seed.
    op_digits = [_digits(c.max_error) for d, c in zip(deck, checks)
                 if c.errors and d.variant != "quadform"]
    # Projected time to a certificate with relative error CERT_TARGET: an
    # op whose error scale e is above the target (a Monte Carlo op) needs
    # (e/target)^2 times the work. Taken over those ops; when every op is
    # already sharper, it is the op time itself.
    to_cert = [best[d.index] * (c.max_error / CERT_TARGET) ** 2
               for d, c in zip(deck, checks) if c.max_error > CERT_TARGET]
    to_cert = to_cert or list(best.values())
    failed = len(loop.failures)
    values = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(deck) / sum(best.values()), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(best.values()), "ms"),
        "op_p90_ms": (1e3 * statistics.quantiles(best.values(), n=10)[-1], "ms"),
        "ok_ratio": ((loop.attempted - failed) / loop.attempted, "ratio"),
        "certified_digits_p10": (statistics.quantiles(op_digits, n=10)[0] if len(op_digits) > 1
                                 else min(op_digits, default=0.0), "digits"),
        "certified_digits_mean": (statistics.fmean(map(_digits, errors)) if errors else 0.0, "digits"),
        "s_to_rel_err_1e-3": (statistics.median(to_cert), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _report_failures(loop: Loop):
    seen = {}
    for draw, result, stderr in loop.failures:
        seen.setdefault(draw.index, [draw, result, stderr, 0])[3] += 1
    for draw, result, stderr, n in seen.values():
        print(f"FAILED x{n}: {draw.label}\n  {result.reason}"
              + (f"\n  stderr: {stderr}" if stderr else ""), file=sys.stderr)


def _print_shares(workload: str, shares: dict):
    print(f"self-time share by op group ({workload}, traced rounds):", file=sys.stderr)
    for group, (ms, layers) in shares.items():
        top = ", ".join(f"{k} {100 * v:.1f}%" for k, v in layers.items() if v >= 0.01)
        print(f"  {group:<12} {ms:9.2f} ms/op  {top}", file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_probe:
        _setup_probe(args.workload, args.seed, args.workdir)
        return 0

    cli = _import_program()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}")
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup_s = 0.0 if args.trace else measure_setup(args.workload, args.seed, workdir)
        deck = workloads.build_deck(args.workload, args.seed, workdir)
        loop = Loop(cli, deck, workloads)
        # Warm-up outside the timing: the first op fills the program's
        # process-wide caches (quadrature rules, derivative polynomials).
        loop.call(deck[0])

        plain: dict = {}
        measured, rounds = 0.0, 0
        if not args.trace:
            while rounds < MIN_ROUNDS or measured < args.seconds:
                measured += loop.round(plain)
                rounds += 1
            metrics = e2e_metrics(loop, plain, setup_s)
        else:
            tracer, traced = tracing.Tracer(), {}
            while rounds < 1 or measured < args.seconds:
                measured += loop.round(plain)
                with tracer:
                    measured += loop.round(traced, tracer)
                rounds += 1
            overhead = sum(_best(traced).values()) / sum(_best(plain).values()) - 1.0
            metrics = tracing.layer_metrics(tracer, rounds * len(deck), 100.0 * overhead)
            tracer.write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))
            _print_shares(args.workload, tracing.group_shares(tracer))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    _report_failures(loop)
    print(f"{args.workload} seed={args.seed}: {loop.attempted} ops in {rounds} rounds of "
          f"{len(deck)}, {len(loop.failures)} failed", file=sys.stderr)
    print(json.dumps({"correct": not loop.failures, "attempted": loop.attempted,
                      "failed": len(loop.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
