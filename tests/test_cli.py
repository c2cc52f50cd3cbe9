import json
import math
import subprocess
import sys

import numpy as np
import pytest

from fraclamb import (
    Exponential,
    GaussTail,
    PosDefMatrix,
    ProblemSpec,
    QuadratureConfig,
    SelectorError,
    ShiftedGaussian,
    forward,
    materialize,
    sample,
    solve_ndim,
)
from fraclamb import cli, forward_verifier
from fraclamb.cli import main, parse_function
from conftest import nan_left_of_minus_three, read_csv, subprocess_env


def run_cli(*args, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "fraclamb.cli", *args],
        capture_output=True, text=True, env=subprocess_env(env_extra),
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
    grid = read_csv(result.stdout)
    nodes = -1.0 + np.arange(5) * 0.5
    assert np.allclose(grid.values, np.exp(nodes) / math.pi, rtol=1e-12)


def test_solve_output_matches_library_bitwise(tmp_path):
    out = tmp_path / "u.csv"
    result = run_cli("solve", "--variant", "symmetric_ndim", "-n", "2",
                     "--function", "exp:lambda=1", "--window", "-1:1",
                     "--count", "9", "--output", str(out))
    assert result.returncode == 0
    assert result.stdout == ""
    grid = read_csv(out.read_text())
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
    grid = read_csv(result.stdout)
    assert np.array_equal(grid.nodes, np.array([0.0, 0.5, 1.0]))
    cfg = QuadratureConfig(mc_samples=1000)
    want = forward(spec, Exponential(1.0), grid.nodes, cfg)[0]
    assert np.array_equal(grid.values, want)
    if factor is not None:
        # Forward of e^x through each half-line or radial operator is a
        # constant times e^x.
        assert np.allclose(grid.values, factor * np.exp(grid.nodes), rtol=1e-8)


@pytest.mark.parametrize("command", ["verify", "solve"])
def test_overflow_is_a_numerical_error(command):
    # math.exp(lambda * c) overflows inside the function's own evaluation.
    result = run_cli(command, "--variant", "classic", "--function",
                     "gauss_tail:lambda=1000:c=1", "--window", "0:1")
    assert result.returncode == 3
    assert result.stderr.startswith("numerical error: gauss_tail:lambda=1000:c=1:")


def test_large_x_window_is_not_an_overflow(capsys):
    # Tail bounds overflow while the cutoff search brackets past L ~ 709,
    # but every value on the window is finite.
    assert main(["solve", "--variant", "classic", "--function", "exp",
                 "--window", "700:705", "--count", "11"]) == 0
    grid = read_csv(capsys.readouterr().out)
    want = 2.0 / math.sqrt(math.pi) * np.exp(grid.nodes)
    assert np.max(np.abs(grid.values / want - 1.0)) < 1e-10
    assert main(["verify", "--variant", "classic", "--function", "exp",
                 "--window", "700:705"]) == 0
    assert "PASS" in capsys.readouterr().err


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


SELFTEST_LIMITS = [
    ("sphere_volume_identity", 1e-13),
    ("eigenfunction_law", 1e-7),
    ("integer_order_consistency", 1e-9),
    ("semigroup", 1e-6),
    ("half_derivative_twice", 1e-5),
    ("classic_round_trip", 1e-6),
    ("ndim_round_trip", 1e-6),
    ("even_direct_vs_fractional", 1e-7),
    ("power_round_trip", 1e-5),
    ("power_two_matches_classic", 1e-7),
    ("classic_is_twice_ndim_one", 1e-9),
    ("quadform_det_scaling", 1e-9),
    ("mc_matches_radial_z", 4.0),
    ("quadform_round_trip_z", 4.0),
    ("mc_determinism", 1e-300),
]


def test_selftest_runs_every_check_at_its_limit(capsys):
    # A check that drops out of the battery, or whose limit moves, fails here.
    assert main(["selftest", "--mc-samples", "200000"]) == 0
    *rows, summary = capsys.readouterr().out.splitlines()
    got = [(verdict, name, float(limit.removeprefix("limit=")))
           for verdict, name, _, limit in map(str.split, rows)]
    assert got == [("PASS", name, limit) for name, limit in SELFTEST_LIMITS]
    assert summary.startswith("selftest: 15/15 passed")


def test_seed_env_var_and_flag_precedence():
    # --seed is the only seed input; the environment has no say.
    base = run_cli("selftest", "--mc-samples", "200000")
    flag_seed = run_cli("selftest", "--mc-samples", "200000", "--seed", "42")
    assert flag_seed.returncode == 0
    assert flag_seed.stdout != base.stdout
    env_seed = run_cli("selftest", "--mc-samples", "200000",
                       env_extra={"FRACLAMB_SEED": "42"})
    assert env_seed.stdout == base.stdout


def test_main_returns_int_for_direct_invocation(capsys):
    code = main(["solve", "--variant", "classic", "--function", "exp:lambda=1",
                 "--window", "0:1", "--count", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("x,value")


def _quadform_verify(tmp_path):
    # n = 2, so the solution is a plain second derivative (no Weyl integral).
    matrix = tmp_path / "A.json"
    matrix.write_text("[[2.0, 1.0], [1.0, 2.0]]")
    return ["verify", "--variant", "quadform", "--matrix", str(matrix),
            "--function", "exp", "--window", "-1:1", "--probes", "3",
            "--mc-samples", "1000"]


def test_verify_fails_on_nan_residuals(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "parse_function", lambda selector: nan_left_of_minus_three())
    assert main(_quadform_verify(tmp_path)) == 1
    assert "max_rel_residual=nan" in capsys.readouterr().err


def test_verify_fails_on_nan_standard_error(monkeypatch, tmp_path, capsys):
    f = Exponential(1.0)
    monkeypatch.setattr(forward_verifier, "forward",
                        lambda spec, u, xs, cfg: (f(xs), np.full(len(xs), math.nan)))
    assert main(_quadform_verify(tmp_path)) == 1
    assert "FAIL" in capsys.readouterr().err


def _scale_solutions(monkeypatch, factor):
    """Make verify certify factor * u in place of the solution u."""
    solve = forward_verifier.solve_problem

    def scaled(spec, f, cfg):
        u = solve(spec, f, cfg)
        out = materialize(lambda x: factor * u.evaluate(x), decay_like=u, label="scaled")
        out.quadrature_valued = u.quadrature_valued
        return out

    monkeypatch.setattr(forward_verifier, "solve_problem", scaled)


@pytest.mark.parametrize("matrix", [
    "[[2.0, 1.0], [1.0, 2.0]]",
    "[[2.0, 0.5, 0.0], [0.5, 1.5, 0.3], [0.0, 0.3, 1.0]]",
], ids=["n=2", "n=3"])
@pytest.mark.parametrize("factor, code", [(1.0, 0), (1.001, 1), (1.0 + 1e-5, 1)],
                         ids=["exact", "off_by_1e-3", "off_by_1e-5"])
def test_default_quadform_gate_catches_a_wrong_constant(matrix, factor, code, monkeypatch,
                                                        tmp_path, capsys):
    # The default sample count and gate: a solution off by a constant factor
    # of 1 + 1e-5 must fail, and the solution itself pass.
    path = tmp_path / "A.json"
    path.write_text(matrix)
    _scale_solutions(monkeypatch, factor)
    assert main(["verify", "--variant", "quadform", "--matrix", str(path),
                 "--function", "exp", "--window", "-1:1", "--probes", "3"]) == code
    assert ("PASS" if code == 0 else "FAIL") in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["non_numeric_matrix", "ragged_matrix", "matrix_not_utf8",
                                  "matrix_is_directory", "output_dir_missing"])
def test_bad_file_input_exits_two(kind, tmp_path, capsys):
    matrix = tmp_path / "A.json"
    matrix.write_bytes({"non_numeric_matrix": b'[["a"]]', "ragged_matrix": b"[[1, 2], [3]]",
                        "matrix_not_utf8": b"[[\xff]]"}.get(kind, b"[[2.0]]"))
    if kind == "matrix_is_directory":
        matrix = tmp_path
    argv = ["solve", "--variant", "quadform", "--matrix", str(matrix),
            "--function", "exp", "--window", "-1:1", "--count", "3"]
    if kind == "output_dir_missing":
        argv += ["--output", str(tmp_path / "missing" / "u.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("selector, extra, name", [
    ("exp:lambda=nan", [], "lambda"),
    ("exp:lambda=inf", [], "lambda"),
    ("gauss_tail:c=nan", [], "c"),
    ("shifted_gaussian:sigma=nan", [], "sigma"),
    ("exp", ["--tol", "inf"], "tol"),
], ids=["lambda_nan", "lambda_inf", "c_nan", "sigma_nan", "tol_inf"])
def test_non_finite_parameter_exits_two(selector, extra, name, capsys):
    argv = ["solve", "--variant", "classic", "--function", selector,
            "--window", "-1:1", "--count", "3", *extra]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {name} must be finite")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_non_finite_integrand_scale_exits_three(command, capsys):
    # Finite input, but the derivatives overflow to NaN on the window.
    assert main([command, "--variant", "classic", "--function",
                 "shifted_gaussian:sigma=1e-200", "--window", "-1:1"]) == 3
    err = capsys.readouterr().err
    assert err == ("numerical error: D^1[shifted_gaussian(sigma=1e-200, c=0)]: "
                   "non-finite value nan at x = -1\n")


@pytest.mark.parametrize("argv,label", [
    (["solve", "--variant", "power", "-m", "1"], "u_power[m=1](exp(lambda=1))"),
    (["solve", "--variant", "symmetric_ndim", "-n", "2"], "u_ndim[n=2](exp(lambda=1))"),
    (["forward", "--variant", "classic"], "exp(lambda=1)"),
], ids=["power_m1", "ndim_n2", "forward_classic"])
def test_non_finite_grid_value_exits_three(argv, label, capsys):
    # e^x overflows at the window's right end, x = 712: in u = c f^(k) for
    # solve, in f itself for forward. One line, one format, no numpy warning.
    assert main([*argv, "--function", "exp", "--window", "700:712", "--count", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"numerical error: {label}: non-finite value inf at x = 712\n"


@pytest.mark.parametrize("argv, message", [
    (["solve", "--variant", "classic", "-n", "3", "-m", "4", "--matrix", "2", "--count", "3"],
     "error: variant 'classic' does not take a matrix\n"),
    (["solve", "--variant", "quadform", "--matrix", "2", "-n", "3"],
     "error: variant 'quadform' has n = 1, got n = 3\n"),
    (["verify", "--variant", "symmetric_ndim", "-n", "2", "--matrix", "2"],
     "error: variant 'symmetric_ndim' does not take a matrix\n"),
    (["solve", "--variant", "symmetric_ndim"], "error: symmetric_ndim requires -n/--dimension\n"),
    (["solve", "--variant", "power"], "error: power requires -m/--power\n"),
    (["verify", "--variant", "quadform"], "error: quadform requires --matrix\n"),
], ids=["classic_stray_data", "quadform_wrong_n", "ndim_stray_matrix",
        "ndim_missing_n", "power_missing_m", "quadform_missing_matrix"])
def test_variant_data_mismatch_exits_two(argv, message, capsys):
    # Data the variant does not take is refused, never silently dropped; a
    # missing datum names its flag.
    assert main([*argv, "--function", "exp", "--window", "0:1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


@pytest.mark.parametrize("threshold", ["nan", "0", "-1", "inf"])
def test_threshold_must_be_finite_and_positive(threshold, capsys):
    assert main(["verify", "--variant", "classic", "--function", "exp", "--window", "-1:1",
                 "--threshold", threshold]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: threshold must be finite and > 0")


@pytest.mark.parametrize("command", ["solve", "forward", "verify"])
def test_overflowing_window_width_exits_two(command, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--variant", "symmetric_ndim", "-n", "2", "--function", "exp",
              "--window", "-1e308:1e308"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "window" in captured.err


def test_hex_seed_is_read_as_an_integer(tmp_path, capsys):
    outputs = []
    for seed in ("0x10", "16", "17"):
        assert main([*_quadform_verify(tmp_path), "--seed", seed]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].out != outputs[2].out


def test_seed_must_be_an_integer(capsys):
    assert main(["solve", "--variant", "classic", "--function", "exp", "--window", "0:1",
                 "--seed", "abc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be an integer, got 'abc'\n"


def test_count_is_refused_before_the_derivative_order(capsys):
    # n = 20 needs derivatives past the built-ins' order (exit 3), but the
    # count is checked first.
    assert main(["solve", "--variant", "symmetric_ndim", "-n", "20", "--function", "exp",
                 "--window", "0:1", "--count", "1"]) == 2
    assert capsys.readouterr().err == "error: count must be >= 2, got 1\n"


def test_malformed_window_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--variant", "classic", "--function", "exp", "--window", "a:1"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --window: window must be 'a:b' with numbers, got 'a:1'" in captured.err


def test_out_of_memory_is_a_numerical_error(monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 7.15 GiB")

    monkeypatch.setattr(cli, "sample", exhausted)
    assert main(["solve", "--variant", "classic", "--function", "exp", "--window", "0:1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical error: out of memory: Unable to allocate 7.15 GiB\n"
