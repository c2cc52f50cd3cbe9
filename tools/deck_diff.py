"""Compare two fraclamb source trees op by op over the benchmark decks.

Run from the root of a checkout, with the ``src`` directories of the two
trees to compare:

    python3 tools/deck_diff.py PARENT_SRC CHANGE_SRC

The ``verify`` and ``solve_grid`` decks of ``bench/workloads.py`` are built
at each seed in SEEDS, with their matrix files in a temporary directory.
Next to them run the fixed ops of ``fixed_ops``: ``selftest``, and
``forward`` for the classic, power m=3, symmetric_ndim n=3 and quadform
(``--matrix 2``) operators on each built-in function, a classic
``solve`` on a sparse grid (SPARSE_GRID) of each: no bench deck reads a
grid whose every panel is sparse, a classic ``solve`` of a sigma=0.5
Gaussian on 20001 points of -6:6, whose CSV mixes fixed and exponent
notation at scale, ``verify`` on a narrow and a wide
Gaussian, outside the decks' sigma range [0.5, 2], a quadform ``verify``
of ``gauss_tail`` at the CLI's default sample budget, the one op that
reads the quadform proxy at 1e6 samples, and one of a sigma=0.2 Gaussian,
the one op whose proxy tables double past 2048 cells. Every op runs once per
tree, through ``fraclamb.cli.main`` in one subprocess per tree and deck
(the fixed ops make one more), with that tree's ``src`` first on
``sys.path``; a fraclamb imported from anywhere else is refused.

Per workload (for the fixed ops, their subcommand: ``selftest``,
``forward``, ``solve``, and ``verify``, counted with the deck's ``verify``
ops) it prints how many ops were compared and how many gave byte-identical
exit code, stdout and stderr, then one line per op that differs, sizing
the move against the parent's output:

* a quadform ``verify`` op: the largest |change in forward| / SE over its
  probes, the SE being the parent's; a quadform estimate may move within
  its standard error;
* any other ``verify`` op whose stdout differs: the largest
  |change in forward| / |forward| over its probes;
* a ``solve`` or ``forward`` op whose stdout differs: the largest
  |change in value| / |value| over the grid, and whether both trees wrote
  the same x column.

The report ends with one line: both trees' ``fraclamb/*.py`` line totals
and their difference.

The exit code is 1 if any op's exit code differs, or any op's stdout or
stderr does other than a quadform ``verify`` op's, and 0 otherwise.
"""

from __future__ import annotations

import glob
import json
import math
import os
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
SEEDS = (1, 7, 17)
# The forward operators of the fixed ops, each as its --variant value and
# datum flags, and the functions each is applied to.
FORWARD_OPERATORS = (("classic",), ("power", "-m", "3"), ("symmetric_ndim", "-n", "3"),
                     ("quadform", "--matrix", "2", "--mc-samples", "20000"))
FUNCTIONS = ("exp", "gauss_tail", "shifted_gaussian")
# About 17 grid points per unit panel, all of them sparse, in one direct
# read below function_model._DIRECT_BLOCK.
SPARSE_GRID = ("--window", "-30:30", "--count", "1001")

# Runs the argv lists read from stdin through one tree's cli.main and writes
# one record per op to stdout as JSON.
_WORKER = r"""
import contextlib, io, json, os, sys, traceback
src = os.path.abspath(sys.argv[1])
sys.path.insert(0, src)
from fraclamb import cli
if not os.path.abspath(cli.__file__).startswith(src + os.sep):
    sys.exit(f"imported fraclamb from {cli.__file__}, not from {src}")
records = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = "crash: " + traceback.format_exc().strip().splitlines()[-1]
    records.append({"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()})
json.dump(records, sys.stdout)
"""


def _run(src: str, argvs: list, workdir: str) -> list:
    """One record per argv: the tree's exit code, stdout and stderr."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, "-c", _WORKER, src], input=json.dumps(argvs),
                          capture_output=True, text=True, cwd=workdir, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"deck_diff: {src}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def fixed_ops() -> list:
    """(variant, argv) of each op run outside the decks; variant is None
    for ``selftest``."""
    ops = [(None, ["selftest"])]
    for variant, *datum in FORWARD_OPERATORS:
        for function in FUNCTIONS:
            ops.append((variant, ["forward", "--variant", variant, *datum, "--function", function,
                                  "--window", "-2:1", "--count", "21"]))
    for function in FUNCTIONS:
        ops.append(("classic", ["solve", "--variant", "classic", "--function", function,
                                *SPARSE_GRID]))
    # A large grid whose CSV mixes both number formats in every chunk: 6192
    # values and one node are in exponent form, written by the stdlib.
    ops.append(("classic", ["solve", "--variant", "classic", "--function",
                            "shifted_gaussian:sigma=0.5", "--window", "-6:6", "--count", "20001"]))
    # A narrow and a wide Gaussian: every bench draw has sigma in [0.5, 2].
    ops.append(("classic", ["verify", "--variant", "classic", "--function",
                            "shifted_gaussian:sigma=0.05", "--window", "-0.1:0.05"]))
    ops.append(("symmetric_ndim", ["verify", "--variant", "symmetric_ndim", "-n", "3", "--function",
                                   "shifted_gaussian:sigma=5", "--window", "-10:5"]))
    # The quadform proxy at the CLI's default budget, on a u that is not exp.
    ops.append(("quadform", ["verify", "--variant", "quadform", "--matrix", "2", "--function",
                             "gauss_tail", "--window", "-1:1", "--probes", "3",
                             "--format", "json"]))
    # A proxy whose Hermite table doubles past 2048 cells, to 4096 and 8192:
    # no bench deck's table does.
    ops.append(("quadform", ["verify", "--variant", "quadform", "--matrix", "2", "--function",
                             "shifted_gaussian:sigma=0.2", "--window", "0.5:1.5",
                             "--probes", "3", "--format", "json"]))
    return ops


def source_lines(src: str) -> int:
    """Total lines of the ``fraclamb/*.py`` files of a tree's ``src``."""
    total = 0
    for path in glob.glob(os.path.join(src, "fraclamb", "*.py")):
        with open(path, encoding="utf-8") as file:
            total += sum(1 for _ in file)
    return total


def _relative(old: float, new: float) -> float:
    """|new - old| / |old|: 0 where the two are equal, inf where only old is 0."""
    return 0.0 if old == new else abs(new - old) / abs(old) if old else math.inf


def _forward_shift(old: dict, new: dict, per_se: bool) -> float:
    """Largest |change in forward| over a verify op's probes, divided by
    the parent's SE (``per_se``) or taken relative to the parent's
    forward; nan where either stdout is not a JSON report of the same
    probes."""
    try:
        a, b = json.loads(old["stdout"]), json.loads(new["stdout"])
        if per_se:
            shifts = [abs(rb["forward"] - ra["forward"]) / se
                      for ra, rb, se in zip(a["rows"], b["rows"], a["std_errors"], strict=True)]
        else:
            shifts = [_relative(ra["forward"], rb["forward"])
                      for ra, rb in zip(a["rows"], b["rows"], strict=True)]
    except (ValueError, KeyError, TypeError, ZeroDivisionError):
        return math.nan
    return max(shifts, default=0.0)


def _value_shift(old: dict, new: dict) -> tuple[float, bool]:
    """Largest |change in value| / |value| over a solve or forward op's
    grid, the value being the parent's, and whether the x columns are the
    same text; (nan, False) where either stdout is not an x,value CSV of
    the same size."""
    try:
        a, b = ([line.split(",") for line in r["stdout"].splitlines()] for r in (old, new))
        if a[0] != ["x", "value"] or b[0] != ["x", "value"] or len(a) != len(b):
            return math.nan, False
        same_x = all(ra[0] == rb[0] for ra, rb in zip(a, b))
        shifts = [_relative(float(va), float(vb)) for (_, va), (_, vb) in zip(a[1:], b[1:])]
    except (ValueError, IndexError):
        return math.nan, False
    return max(shifts, default=0.0), same_x


def compare(ops: list, parent: list, change: list) -> tuple[list, bool]:
    """The report's lines, and whether the change keeps every exit code and
    every op's stdout and stderr but a quadform ``verify`` op's.

    ``ops`` holds one dict per op with its ``workload``, ``variant``,
    ``command`` (the subcommand) and a ``name`` for the report; ``parent``
    and ``change`` hold each op's record, a dict of its ``rc``, ``stdout``
    and ``stderr``.
    """
    ok, tallies = True, {}
    for op, old, new in zip(ops, parent, change, strict=True):
        tally = tallies.setdefault(op["workload"], {"ops": 0, "same": 0, "notes": []})
        tally["ops"] += 1
        if old == new:
            tally["same"] += 1
        elif old["rc"] != new["rc"]:
            ok = False
            tally["notes"].append(f"  {op['name']}: exit code {old['rc']} -> {new['rc']}")
        elif op["variant"] == "quadform" and op["command"] == "verify":
            shift = _forward_shift(old, new, per_se=True)
            tally["notes"].append(f"  {op['name']}: max |dforward|/SE = {shift:.3g}")
        elif op["command"] == "verify" and old["stdout"] != new["stdout"]:
            ok = False
            shift = _forward_shift(old, new, per_se=False)
            tally["notes"].append(f"  {op['name']}: max |dforward|/|forward| = {shift:.3g}")
        elif op["command"] in ("solve", "forward") and old["stdout"] != new["stdout"]:
            ok = False
            shift, same_x = _value_shift(old, new)
            tally["notes"].append(f"  {op['name']}: max |dvalue|/|value| = {shift:.3g}, "
                                  f"x column {'identical' if same_x else 'differs'}")
        else:
            ok = False
            tally["notes"].append(f"  {op['name']}: stdout or stderr differs")
    lines = []
    for workload, tally in tallies.items():
        lines.append(f"{workload}: {tally['ops']} ops compared, {tally['same']} byte-identical")
        lines += tally["notes"]
    return lines, ok


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/deck_diff.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    parent_src, change_src = map(os.path.abspath, args)
    sys.path.insert(0, BENCH_DIR)
    import workloads

    ops, parent, change = [], [], []
    with tempfile.TemporaryDirectory() as workdir:
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                deck = workloads.build_deck(workload, seed, os.path.join(workdir, f"{workload}_{seed}"))
                argvs = [list(draw.argv) for draw in deck]
                runs = [_run(src, argvs, workdir) for src in (parent_src, change_src)]
                for draw, old, new in zip(deck, *runs, strict=True):
                    ops.append({"workload": workload, "variant": draw.variant,
                                "command": draw.argv[0],
                                "name": f"seed {seed} op {draw.index} ({draw.variant})"})
                    parent.append(old)
                    change.append(new)
        fixed = fixed_ops()
        runs = [_run(src, [argv for _, argv in fixed], workdir) for src in (parent_src, change_src)]
        for (variant, argv), old, new in zip(fixed, *runs, strict=True):
            ops.append({"workload": argv[0], "variant": variant, "command": argv[0],
                        "name": " ".join(argv)})
            parent.append(old)
            change.append(new)
    lines, ok = compare(ops, parent, change)
    old, new = source_lines(parent_src), source_lines(change_src)
    lines.append(f"source: fraclamb/*.py {old} -> {new} lines ({new - old:+d})")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
