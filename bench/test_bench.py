"""Tests of the benchmark itself: run with ``python -m pytest bench``."""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from fraclamb import cli, forward_verifier  # noqa: E402

SEED = 20240601


def _run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def _bench(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)


def _first(deck, **match):
    return next(d for d in deck if all(getattr(d, k) == v for k, v in match.items()))


def test_two_traced_runs_report_identical_counts():
    counts = ("quad.nodes.weyl", "function_model.tail_bound_calls",
              "lamb_solver.memo_hits", "forward_verifier.mc_samples")
    results = []
    for _ in range(2):
        proc = _bench("--workload", "verify", "--seed", str(SEED),
                      "--seconds", "0.1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    for name in counts:
        assert results[0]["metrics"][name] == results[1]["metrics"][name], name
    assert results[0]["metrics"]["forward_verifier.mc_samples"]["value"] > 0
    assert results[0]["metrics"]["quad.nodes.weyl"]["value"] > 0


def test_tracer_counts_repeat_and_wrappers_come_off(tmp_path):
    deck = [d for d in workloads.build_deck("verify", SEED, str(tmp_path))
            if d.variant != "quadform"][:6]
    original = forward_verifier.forward_power
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer:
            for i, draw in enumerate(deck):
                tracer.op = i
                _run_cli(draw.argv)
        metrics = tracing.layer_metrics(tracer, len(deck), 0.0)
        counts.append({k: metrics[k]["value"] for k in (
            "quad.nodes.weyl", "quad.nodes.forward", "function_model.tail_bound_calls",
            "lamb_solver.memo_hits", "forward_verifier.forward_calls")})
    assert counts[0] == counts[1]
    assert counts[0]["quad.nodes.forward"] > 0
    assert forward_verifier.forward_power is original


def _scale_csv_values(text: str, factor: float) -> str:
    lines = text.splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        x, v = line.split(",")
        out.append(f"{x},{float(v) * factor!r}")
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("family", ["exp", "shifted_gaussian"])
def test_solve_check_flags_solution_scaled_by_1_001(tmp_path, family):
    deck = workloads.build_deck("solve_grid", SEED, str(tmp_path))
    draw = _first(deck, family=family, count=workloads.SOLVE_COUNTS[0])
    rc, out = _run_cli(draw.argv)
    assert workloads.check(draw, rc, out, {}).ok
    bad = workloads.check(draw, rc, _scale_csv_values(out, 1.001), {})
    assert not bad.ok and "relative error" in bad.reason


def test_verify_check_flags_forward_scaled_by_1_001(tmp_path):
    deck = workloads.build_deck("verify", SEED, str(tmp_path))
    draw = _first(deck, group="exp")
    rc, out = _run_cli(draw.argv)
    assert workloads.check(draw, rc, out, {}).ok
    report = json.loads(out)
    for row in report["rows"]:
        row["forward"] *= 1.001
    assert not workloads.check(draw, rc, json.dumps(report), {}).ok


def test_mc_check_flags_estimate_shifted_by_5_se(tmp_path):
    deck = workloads.build_deck("verify", SEED, str(tmp_path))
    draw = _first(deck, group="n=2")
    rc, out = _run_cli(draw.argv)
    assert workloads.check(draw, rc, out, {}).ok
    report = json.loads(out)
    for row, se in zip(report["rows"], report["std_errors"]):
        row["forward"] += 5.0 * se * (1.0 if row["forward"] >= row["f"] else -1.0)
    bad = workloads.check(draw, rc, json.dumps(report), {})
    assert not bad.ok and "SE" in bad.reason


def test_deck_depends_only_on_seed(tmp_path):
    a = workloads.build_deck("verify", SEED, str(tmp_path / "a"))
    b = workloads.build_deck("verify", SEED, str(tmp_path / "b"))
    strip = lambda deck: [tuple(x for x in d.argv if not x.endswith(".json")) for d in deck]
    assert strip(a) == strip(b)
    assert strip(a) != strip(workloads.build_deck("verify", SEED + 1, str(tmp_path / "c")))


def test_without_sources_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "solve_grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
