import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fraclamb import (
    Exponential,
    GaussTail,
    GridFunction,
    PosDefMatrix,
    ProblemSpec,
    QuadratureConfig,
    SelectorError,
    ShiftedGaussian,
    forward,
    sample,
    solve_ndim,
)
from fraclamb.cli import main, parse_function


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("FRACLAMB_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "fraclamb.cli", *args],
        capture_output=True, text=True, env=env,
    )


class TestParseFunction:
    def test_exponential_with_rate(self):
        f = parse_function("exp:lambda=2")
        assert isinstance(f, Exponential)
        assert f.lam == 2.0

    def test_defaults(self):
        f = parse_function("shifted_gaussian")
        assert isinstance(f, ShiftedGaussian)
        assert f.sigma == 1.0 and f.c == 0.0
        g = parse_function("gauss_tail:c=1.5")
        assert isinstance(g, GaussTail)
        assert g.lam == 1.0 and g.c == 1.5

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(SelectorError):
            parse_function("exp:lambda=-1")

    def test_rejects_unknown_name(self):
        with pytest.raises(SelectorError, match="unknown function"):
            parse_function("sine")

    def test_rejects_unknown_key(self):
        with pytest.raises(SelectorError, match="does not take"):
            parse_function("exp:sigma=1")

    def test_rejects_malformed_token(self):
        with pytest.raises(SelectorError, match="malformed"):
            parse_function("exp:lambda")


def test_solve_writes_expected_grid():
    result = run_cli("solve", "--variant", "symmetric_ndim", "-n", "2",
                     "--function", "exp:lambda=1", "--window", "-1:1",
                     "--count", "5")
    assert result.returncode == 0
    grid = GridFunction.from_csv(result.stdout)
    nodes = -1.0 + np.arange(5) * 0.5
    assert np.allclose(grid.values, np.exp(nodes) / math.pi, rtol=1e-12)


def test_solve_output_matches_library_bitwise(tmp_path):
    out = tmp_path / "u.csv"
    result = run_cli("solve", "--variant", "symmetric_ndim", "-n", "2",
                     "--function", "exp:lambda=1", "--window", "-1:1",
                     "--count", "9", "--output", str(out))
    assert result.returncode == 0
    assert result.stdout == ""
    grid = GridFunction.from_csv(out.read_text())
    u = solve_ndim(Exponential(1.0), 2, QuadratureConfig())
    direct = sample(u, -1.0, 1.0, 9)
    assert np.array_equal(grid.values, direct.values)


def test_solve_json_format():
    result = run_cli("solve", "--variant", "classic", "--function",
                     "exp:lambda=1", "--window", "0:1", "--count", "3",
                     "--format", "json")
    assert result.returncode == 0
    obj = json.loads(result.stdout)
    assert obj["x_start"] == 0.0
    assert len(obj["values"]) == 3
    assert obj["values"][0] == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-9)


def test_invalid_window_exits_two():
    result = run_cli("solve", "--variant", "symmetric_ndim", "-n", "2",
                     "--function", "exp:lambda=1", "--window", "1:-1",
                     "--count", "5")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "window" in result.stderr


def test_bad_selector_exits_two():
    result = run_cli("solve", "--variant", "classic", "--function",
                     "exp:lambda=-1", "--window", "-1:1", "--count", "5")
    assert result.returncode == 2
    assert "error" in result.stderr


def test_missing_variant_field_exits_two():
    result = run_cli("solve", "--variant", "power", "--function",
                     "exp:lambda=1", "--window", "-1:1", "--count", "5")
    assert result.returncode == 2


def test_not_positive_definite_matrix_exits_three(tmp_path):
    mat = tmp_path / "A.json"
    mat.write_text("[[1.0, 2.0], [2.0, 1.0]]")
    result = run_cli("solve", "--variant", "quadform", "--matrix", str(mat),
                     "--function", "exp:lambda=1", "--window", "-1:1",
                     "--count", "3")
    assert result.returncode == 3
    assert "numerical error" in result.stderr


@pytest.mark.parametrize("variant_args, spec, factor", [
    (["classic"], ProblemSpec(variant="classic"), math.gamma(1.5)),
    (["power", "-m", "3"], ProblemSpec(variant="power", m=3), math.gamma(4.0 / 3.0)),
    (["symmetric_ndim", "-n", "3"], ProblemSpec(variant="symmetric_ndim", n=3), math.pi ** 1.5),
    (["quadform", "--matrix", "2"], ProblemSpec(variant="quadform", A=PosDefMatrix([[2.0]])), None),
], ids=["classic", "power", "symmetric_ndim", "quadform"])
def test_forward_command_values(variant_args, spec, factor):
    result = run_cli("forward", "--variant", *variant_args, "--function",
                     "exp:lambda=1", "--window", "0:1", "--count", "3",
                     "--mc-samples", "1000")
    assert result.returncode == 0
    grid = GridFunction.from_csv(result.stdout)
    assert np.array_equal(grid.nodes, np.array([0.0, 0.5, 1.0]))
    cfg = QuadratureConfig(mc_samples=1000)
    want = [forward(spec, Exponential(1.0), float(x), cfg)[0] for x in grid.nodes]
    assert np.array_equal(grid.values, want)
    if factor is not None:
        # Forward of e^x through each half-line or radial operator is a
        # constant times e^x.
        assert np.allclose(grid.values, factor * np.exp(grid.nodes), rtol=1e-8)


@pytest.mark.parametrize("command", ["verify", "solve"])
def test_overflow_is_a_numerical_error(command):
    result = run_cli(command, "--variant", "classic", "--function",
                     "exp:lambda=1", "--window", "700:705")
    assert result.returncode == 3
    assert "numerical error" in result.stderr


def test_verify_pass_and_threshold_failure():
    ok = run_cli("verify", "--variant", "classic", "--function",
                 "exp:lambda=1", "--window", "-2:2", "--probes", "9")
    assert ok.returncode == 0
    assert "PASS" in ok.stderr
    assert ok.stdout.splitlines()[0] == "x,f,forward,residual"

    strict = run_cli("verify", "--variant", "classic", "--function",
                     "exp:lambda=1", "--window", "-2:2", "--probes", "9",
                     "--threshold", "1e-30")
    assert strict.returncode == 1
    assert "FAIL" in strict.stderr


def test_verify_quadform_with_matrix_file(tmp_path):
    mat = tmp_path / "A.json"
    mat.write_text("[[2.0, 1.0], [1.0, 2.0]]")
    result = run_cli("verify", "--variant", "quadform", "--matrix", str(mat),
                     "--function", "exp:lambda=1", "--window", "-1:1",
                     "--probes", "5")
    assert result.returncode == 0


def test_inline_matrix_entry_for_one_dimension():
    result = run_cli("verify", "--variant", "quadform", "--matrix", "4.0",
                     "--function", "exp:lambda=1", "--window", "-1:1",
                     "--probes", "5")
    assert result.returncode == 0


def test_selftest_deterministic_across_runs():
    a = run_cli("selftest", "--mc-samples", "200000")
    b = run_cli("selftest", "--mc-samples", "200000")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert "selftest:" in a.stdout


def test_seed_env_var_and_flag_precedence():
    base = run_cli("selftest", "--mc-samples", "200000")
    env_seed = run_cli("selftest", "--mc-samples", "200000",
                       env_extra={"FRACLAMB_SEED": "42"})
    assert env_seed.returncode == 0
    assert env_seed.stdout != base.stdout  # env overrides the default
    flag_beats_env = run_cli("selftest", "--mc-samples", "200000",
                             "--seed", str(0xC0FFEE),
                             env_extra={"FRACLAMB_SEED": "42"})
    assert flag_beats_env.stdout == base.stdout


def test_main_returns_int_for_direct_invocation(capsys):
    code = main(["solve", "--variant", "classic", "--function", "exp:lambda=1",
                 "--window", "0:1", "--count", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("x,value")
