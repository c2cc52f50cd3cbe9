"""Smoke tests of the tools: the lattice-vector search still imports the
module's constants and reproduces a small vector, and the deck comparison
judges hand-made records (it never runs the decks or its fixed ops here)."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lattice_vector_search_is_deterministic():
    lattice_vectors = _load("lattice_vectors")
    z, quality = lattice_vectors.search(3, 5, 10, 16, 0)
    assert lattice_vectors.search(3, 5, 10, 16, 0)[0] == z
    assert len(z) == len(quality) == 3
    assert z[0] == 1
    assert all(component % 2 == 1 for component in z)


def _record(rc=0, forwards=(1.0, 2.0), stderr="PASS\n"):
    """One op's record as the deck comparison sees it: a quadform verify
    report with SE 0.1 at every probe."""
    rows = [{"x": 0.0, "f": 1.0, "forward": value, "residual": 0.0} for value in forwards]
    stdout = json.dumps({"rows": rows, "std_errors": [0.1] * len(rows)})
    return {"rc": rc, "stdout": stdout, "stderr": stderr}


def test_deck_diff_comparison():
    compare = _load("deck_diff").compare
    ops = [{"workload": "verify", "variant": "quadform", "command": "verify", "name": "q"},
           {"workload": "verify", "variant": "classic", "command": "verify", "name": "c"},
           {"workload": "solve_grid", "variant": "power", "command": "solve", "name": "s"}]
    parent = [_record(), _record(), _record()]

    assert compare(ops, parent, list(parent)) == (
        ["verify: 2 ops compared, 2 byte-identical",
         "solve_grid: 1 ops compared, 1 byte-identical"], True)

    # A quadform estimate may move: the report gives its shift in SEs.
    shifted = [_record(forwards=(1.0, 2.00005), stderr="PASS, last digits\n")] + parent[1:]
    lines, ok = compare(ops, parent, shifted)
    assert ok and lines[:2] == ["verify: 2 ops compared, 1 byte-identical",
                                "  q: max |dforward|/SE = 0.0005"]

    # Any other op must stay byte-identical.
    lines, ok = compare(ops, parent, [parent[0], _record(stderr="PASS, other\n"), parent[2]])
    assert not ok and lines[1] == "  c: stdout or stderr differs"

    # No op may change its exit code, a quadform one included.
    lines, ok = compare(ops, parent, [_record(rc=1)] + parent[1:])
    assert not ok and lines[1] == "  q: exit code 0 -> 1"


def _grid(values, xs=(0.0, 0.5)):
    """One solve op's record: an x,value CSV at 17 significant digits."""
    rows = "".join("%.17g,%.17g\n" % row for row in zip(xs, values))
    return {"rc": 0, "stdout": "x,value\n" + rows, "stderr": ""}


def test_deck_diff_reports_how_far_solve_values_moved():
    compare = _load("deck_diff").compare
    ops = [{"workload": "solve_grid", "variant": "classic", "command": "solve", "name": "s"}]
    parent = [_grid((1.0, -3.0))]

    assert compare(ops, parent, [_grid((1.0, -3.0))]) == (
        ["solve_grid: 1 ops compared, 1 byte-identical"], True)

    # A solve op that moves is reported with its largest relative change,
    # and still fails the comparison.
    lines, ok = compare(ops, parent, [_grid((1.0, -3.0 * (1.0 + 1e-12)))])
    assert not ok
    assert lines == ["solve_grid: 1 ops compared, 0 byte-identical",
                     "  s: max |dvalue|/|value| = 1e-12, x column identical"]

    lines, ok = compare(ops, parent, [_grid((1.0, -3.0), xs=(0.0, 0.25))])
    assert not ok and lines[1] == "  s: max |dvalue|/|value| = 0, x column differs"

    # Same grid, other stderr: no value report.
    lines, ok = compare(ops, parent, [dict(parent[0], stderr="warning\n")])
    assert not ok and lines[1] == "  s: stdout or stderr differs"


def test_deck_diff_fixed_ops_must_stay_byte_identical():
    deck_diff = _load("deck_diff")
    argvs = [argv for _, argv in deck_diff.fixed_ops()]
    assert argvs[0] == ["selftest"]
    operators = [["--variant", "classic"], ["--variant", "power", "-m", "3"],
                 ["--variant", "symmetric_ndim", "-n", "3"],
                 ["--variant", "quadform", "--matrix", "2"]]
    for function in ("exp", "gauss_tail", "shifted_gaussian"):
        for operator in operators:
            assert sum(argv[0] == "forward" and argv[1:1 + len(operator)] == operator
                       and argv[argv.index("--function") + 1] == function for argv in argvs) == 1
    # A classic solve on a sparse grid of each built-in, and one on a large
    # grid whose CSV mixes fixed and exponent notation.
    solves = [argv for argv in argvs if argv[0] == "solve"]
    assert [argv[argv.index("--function") + 1] for argv in solves] == [
        "exp", "gauss_tail", "shifted_gaussian", "shifted_gaussian:sigma=0.5"]
    assert all(argv[1:3] == ["--variant", "classic"] for argv in solves)
    assert solves[-1][-4:] == ["--window", "-6:6", "--count", "20001"]
    # verify on a narrow and a wide Gaussian, outside the decks' sigma range,
    # and two quadform verifies at the default sample budget: one whose
    # proxy tables double past 2048 cells.
    verifies = [argv for argv in argvs if argv[0] == "verify"]
    assert [argv[argv.index("--function") + 1] for argv in verifies] == [
        "shifted_gaussian:sigma=0.05", "shifted_gaussian:sigma=5", "gauss_tail",
        "shifted_gaussian:sigma=0.2"]
    for argv in verifies[-2:]:
        assert argv[1:5] == ["--variant", "quadform", "--matrix", "2"]
        assert "--mc-samples" not in argv
    assert verifies[-1][verifies[-1].index("--window") + 1] == "0.5:1.5"
    assert len(argvs) == 21

    # Unlike a quadform verify op, a quadform forward op may not move; its
    # grid's move is sized as a solve op's is.
    ops = [{"workload": "forward", "variant": "quadform", "command": "forward", "name": "fq"},
           {"workload": "selftest", "variant": None, "command": "selftest", "name": "st"}]
    parent = [_grid((1.0, 2.0)), _record()]
    assert deck_diff.compare(ops, parent, list(parent)) == (
        ["forward: 1 ops compared, 1 byte-identical",
         "selftest: 1 ops compared, 1 byte-identical"], True)
    lines, ok = deck_diff.compare(ops, parent, [_grid((1.0, 2.00005)), parent[1]])
    assert not ok and lines[1] == "  fq: max |dvalue|/|value| = 2.5e-05, x column identical"
    lines, ok = deck_diff.compare(ops, parent, [parent[0], _record(stderr="FAIL\n")])
    assert not ok and lines[2] == "  st: stdout or stderr differs"


def test_deck_diff_reports_how_far_deterministic_forwards_moved():
    compare = _load("deck_diff").compare
    ops = [{"workload": "verify", "variant": "classic", "command": "verify", "name": "c"}]
    parent = [_record(forwards=(0.0, -4.0))]

    # A deterministic verify op that moves is reported with its largest
    # relative change in forward, and still fails the comparison.
    lines, ok = compare(ops, parent, [_record(forwards=(0.0, -4.0 * (1.0 + 1e-12)))])
    assert not ok
    assert lines == ["verify: 1 ops compared, 0 byte-identical",
                     "  c: max |dforward|/|forward| = 1e-12"]

    # A forward of 0 that moves has moved infinitely far, relatively.
    lines, ok = compare(ops, parent, [_record(forwards=(1e-300, -4.0))])
    assert not ok and lines[1] == "  c: max |dforward|/|forward| = inf"

    # Same report, other stderr: no forward report.
    lines, ok = compare(ops, parent, [dict(parent[0], stderr="FAIL\n")])
    assert not ok and lines[1] == "  c: stdout or stderr differs"


def test_deck_diff_counts_the_package_source_lines(tmp_path):
    source_lines = _load("deck_diff").source_lines
    package = tmp_path / "fraclamb"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("one\ntwo\nthree\n")
    (package / "b.py").write_text("one\nno newline at the end")
    # Neither a file that is not Python nor one in a subpackage counts.
    (package / "notes.txt").write_text("one\ntwo\n")
    (package / "sub" / "c.py").write_text("one\n")
    assert source_lines(str(tmp_path)) == 5
    assert source_lines(str(tmp_path / "missing")) == 0
