"""The Chebyshev core: the nested check of a series, and the Hermite table
built from one cached Chebyshev-Vandermonde matrix, or past its cells by
Clenshaw summation."""

import json
import math
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from fraclamb import Exponential, PosDefMatrix, QuadratureConfig, ShiftedGaussian, solve_quadform
from fraclamb import _cheb, forward_verifier
from fraclamb.function_model import _PANEL_CHECKS, CUTOFF_EPSILON

from conftest import subprocess_env

LO, HI = -2.0, 1.0
LEVEL = 1e-9  # the proxy's check level at the default tol
CHOP = forward_verifier._PROXY_CHOP


def _x(t):
    """The point of [LO, HI] that t of [-1, 1] stands for."""
    return LO + (t + 1.0) * (0.5 * (HI - LO))


def _noise(x):
    """A deterministic stand-in for noise: unresolvable at degree 128."""
    return 1e-8 * np.sin(1e6 * x)


def _stands(f, chop=CHOP):
    return _cheb._checked_series(f, LO, HI, _cheb._ODD, chop, LEVEL) is not None


def test_grid_nests_the_nodes_and_the_panel_checks():
    # The even points of the 257-point grid are the 129 nodes, bit for bit,
    # and sample's 4 checks are odd points of the same grid.
    nodes = np.sin(np.pi * np.arange(128, -129, -2) / 256)
    assert np.array_equal(_cheb._NODES, nodes) and _cheb._ODD.size == 128
    mid = np.sin(np.pi * (np.arange(128, -128, -2) - 1) / 256)
    assert np.array_equal(_cheb._ODD, mid)
    assert np.isin(_PANEL_CHECKS, _cheb._ODD).all()


def test_check_catches_a_series_wrong_only_between_nodes():
    # A bump centred on an odd grid point, 1e-4 high and so narrow that
    # it is below rounding at every node: the interpolant is exp's, so only
    # the check at that odd point can see it.
    x0, width = _x(_cheb._ODD[60]), 0.0015 * 0.5 * (HI - LO)

    def bumped(x):
        return np.exp(x) + 1e-4 * np.exp(-0.5 * ((x - x0) / width) ** 2)

    nodes = _x(_cheb._NODES)
    assert np.array_equal(bumped(nodes), np.exp(nodes))
    assert _stands(np.exp)
    assert not _stands(bumped)


def test_check_catches_a_noisy_function():
    # Relative noise of 1e-8 leaves too few coefficients below the chop.
    assert not _stands(lambda x: np.exp(x) * (1.0 + _noise(x)))
    # At a chop above the noise a straight line's series drops the noisy
    # tail and keeps the line's two coefficients: only the check, at the
    # odd points, finds the noise there.
    line = lambda x: 1.0 + 0.5 * x
    assert _stands(line, chop=1e-7)
    assert not _stands(lambda x: line(x) * (1.0 + _noise(x)), chop=1e-7)


A3 = PosDefMatrix([[2.0, 0.5, 0.0], [0.5, 1.5, 0.3], [0.0, 0.3, 1.0]])
CFG = QuadratureConfig(mc_samples=5000)

# Builds the proxy tables of a 94-term ShiftedGaussian(0.2) series, whose
# table doubles to 8192 cells, and of an exp series, in the order given,
# and prints each table's bytes as hex, keyed by its name.
_TABLES = r"""
import json, sys
from fraclamb import Exponential, PosDefMatrix, QuadratureConfig, ShiftedGaussian, solve_quadform
from fraclamb import forward_verifier
from fraclamb.function_model import CUTOFF_EPSILON

def tables(order):
    A = PosDefMatrix([[2.0, 0.5, 0.0], [0.5, 1.5, 0.3], [0.0, 0.3, 1.0]])
    cfg = QuadratureConfig(mc_samples=5000)
    cases = {"gaussian": (ShiftedGaussian(0.2), 1.0), "exp": (Exponential(1.0), 0.3)}
    out = {}
    for name in order:
        f, x = cases[name]
        u = solve_quadform(f, A, cfg)
        span = forward_verifier._decay_span(u, x, u(x), CUTOFF_EPSILON)
        out[name] = forward_verifier._proxy_table(u, x, span, cfg).tobytes().hex()
    return out

if __name__ == "__main__":
    print(json.dumps(tables(sys.argv[1:])))
"""


def test_table_floats_do_not_depend_on_the_cached_matrix(monkeypatch):
    namespace, terms, hermite_table = {}, [], forward_verifier._hermite_table
    exec(_TABLES, namespace)

    def recording(coef, *rest):
        terms.append(coef.size)
        return hermite_table(coef, *rest)

    monkeypatch.setattr(forward_verifier, "_hermite_table", recording)
    monkeypatch.setattr(_cheb, "_vander", None)
    # The Gaussian first: its 94 columns stay cached at 2048 cells, and the
    # exp table reads its first columns out of them.
    here = namespace["tables"](["gaussian", "exp"])
    assert terms[0] == 94 and terms[1] < 94
    assert _cheb._vander.shape == (4097, 94)
    assert len(here["gaussian"]) == 2 * 8 * 4 * 8193
    # A fresh process builds exp's columns alone, then the Gaussian's.
    run = subprocess.run([sys.executable, "-c", _TABLES, "exp", "gaussian"],
                         capture_output=True, text=True, env=subprocess_env(), timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == here
    # A second thread, on the cache as this one left it.
    got = {}
    thread = threading.Thread(target=lambda: got.update(namespace["tables"](["exp", "gaussian"])))
    thread.start()
    thread.join()
    assert got == here


def test_importing_the_cli_builds_no_matrix():
    # Nor does it load numpy.polynomial: _cheb looks its routines up when
    # it calls them.
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys, fraclamb.cli; from fraclamb import _cheb; "
         "print(_cheb._vander is None, 'numpy.polynomial' in sys.modules)"],
        capture_output=True, text=True, env=subprocess_env(), timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "True False"


def test_table_products_agree_with_clenshaw():
    # The table's edge values are matrix products; summed by Clenshaw they
    # agree to rounding.
    u = solve_quadform(Exponential(1.0), A3, CFG)
    x = 0.3
    span = forward_verifier._decay_span(u, x, u(x), CUTOFF_EPSILON)
    coef, _ = _cheb._checked_series(lambda s: u.evaluate(x - np.minimum(s * s, span)), 0.0,
                                    math.sqrt(span), _cheb._ODD, CHOP, CFG.tol)
    table = _cheb._hermite_table(coef)
    edges = _cheb._clenshaw(coef, np.arange(2049) / 1024 - 1.0)
    assert table.shape == (4, 2049)
    assert np.max(np.abs(table[0] - edges)) <= 1e-14 * np.max(np.abs(edges))
    assert np.array_equal(table[1:, -1], np.zeros(3))


def test_doubled_table_builds_no_matrix():
    # A 94-term series doubles its table to 8192 cells. With the matrix at
    # 2048 cells already holding its columns, the build's traced peak stays
    # under 2 MB (1.5 MB): the doubled levels sum the series by Clenshaw.
    # A Chebyshev-Vandermonde matrix built for each of them peaked at 13 MB.
    u = solve_quadform(ShiftedGaussian(0.2), A3, CFG)
    x = 1.0
    span = forward_verifier._decay_span(u, x, u(x), CUTOFF_EPSILON)
    coef, _ = _cheb._checked_series(lambda s: u.evaluate(x - np.minimum(s * s, span)), 0.0,
                                    math.sqrt(span), _cheb._ODD, CHOP, CFG.tol)
    assert coef.size == 94
    want = _cheb._hermite_table(coef)
    tracemalloc.start()
    try:
        table = _cheb._hermite_table(coef)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (4, 8193) and np.array_equal(table, want)
    assert peak < 2_000_000


@pytest.mark.parametrize("terms", [1, 2, 3, 37])
def test_clenshaw_is_chebval_bit_for_bit(terms):
    rng = np.random.default_rng(terms)
    coef = rng.standard_normal(terms)
    t = rng.uniform(-1.0, 1.0, 1000)
    assert np.array_equal(_cheb._clenshaw(coef, t),
                          np.polynomial.chebyshev.chebval(t, coef))


def _read(table, s, top):
    """_cheb._table_values at a copy of s, with fresh work arrays."""
    s = np.array(s, dtype=float)
    return _cheb._table_values(table, s, top, np.empty(s.size),
                               np.empty(s.size, np.intp), np.empty(s.size))


# The series of exp(2 t) on [-1, 1], read on [0, TOP]: s = TOP maps to
# the closing cell's own index, M, exactly.
EXP_SERIES = np.polynomial.chebyshev.chebinterpolate(lambda t: np.exp(2.0 * t), 40)
TOP = 0.75


def test_table_reads_the_series_it_holds():
    table = _cheb._hermite_table(EXP_SERIES)
    assert table.shape == (4, _cheb._CELLS + 1)
    s = np.random.default_rng(5).uniform(0.0, TOP, 100_000)
    series = np.polynomial.chebyshev.chebval(s / (0.5 * TOP) - 1.0, EXP_SERIES)
    got = _read(table, s, TOP)
    assert np.max(np.abs(got - series)) <= _cheb._TABLE_LEVEL * np.max(np.abs(series))


def test_table_reads_its_closing_cell_at_the_top():
    table = _cheb._hermite_table(EXP_SERIES)
    cells = table.shape[1] - 1
    assert TOP * (cells / TOP) == cells
    assert _read(table, [TOP], TOP)[0] == table[0, -1]


def test_constant_reads_back_bit_for_bit():
    # A span so small that x - s^2 is x at every node: a probe's series is
    # then one coefficient, and its table reads the constant everywhere.
    top = 1e-150
    coef, _ = _cheb._checked_series(lambda s: np.full(s.shape, 0.7), 0.0, top, _cheb._ODD,
                                    CHOP, LEVEL)
    assert np.array_equal(coef, [0.7])
    table = _cheb._hermite_table(coef)
    s = np.linspace(0.0, top, 1001)
    assert np.all(_read(table, s, top) == 0.7)
