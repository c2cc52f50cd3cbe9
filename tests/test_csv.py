"""The CSV writer: byte for byte what ``"%.17g"`` writes, value by value,
on both of its paths (numpy digits where %g uses fixed notation, the
stdlib % elsewhere), and in chunks of 4096 rows."""

import math

import numpy as np
import pytest

from fraclamb import _csv


def _reference(table):
    """The writer's output, built one value at a time with the stdlib."""
    return "h\n" + "".join(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist())


def _ties(rng):
    """Odd j / 2**m whose exact decimal has 18 significant digits, the last
    a 5 (j * 5**m in [1e17, 1e18)): each one is a tie at 17 digits."""
    ties = []
    for m in range(3, 26):
        low = -(-10**17 // 5**m)
        high = min((10**18 - 1) // 5**m, 2**53 - 1)
        for i in rng.integers(low // 2, (high - 1) // 2 + 1, 150).tolist():
            ties.append((2 * i + 1) / 2**m)
    return np.array(ties)


def _sweep():
    rng = np.random.default_rng(29)
    sign = lambda n: rng.choice([-1.0, 1.0], n)
    ties = _ties(rng)
    powers = np.array([10.0**k for k in range(-6, 19)])
    # The doubles nearest 10**k * (1 - 1e-17), where 17 digits would carry.
    nines = np.array([float(f"0.99999999999999999e{k}") for k in range(-5, 19)])
    specials = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                         np.finfo(float).max, -np.finfo(float).max, np.finfo(float).tiny])
    return np.concatenate([
        rng.standard_normal(20000),
        sign(20000) * 10.0**rng.uniform(-7.0, 19.0, 20000),
        sign(ties.size) * ties,
        np.nextafter(powers, 0.0), powers, np.nextafter(powers, math.inf),
        -np.nextafter(powers, 0.0), -powers, -np.nextafter(powers, math.inf),
        nines, np.nextafter(nines, 0.0), np.nextafter(nines, math.inf),
        specials,
    ])


@pytest.mark.parametrize("cols", [1, 2, 5])
def test_format_csv_matches_the_stdlib_value_by_value(cols):
    values = np.random.default_rng(cols).permutation(_sweep())
    table = values[:values.size // cols * cols].reshape(-1, cols)
    assert _csv.format_csv("h", table) == _reference(table)


def _grid(rows, rng):
    """Rows of x and a value, every one in fixed notation."""
    x = np.linspace(-3.0, -1.0, rows)
    return np.column_stack((x, np.exp(x) * rng.uniform(0.5, 2.0, rows)))


def test_rows_are_formatted_in_chunks_of_4096(monkeypatch):
    # Digits are built in numpy for at most 4096 rows at a time, and only
    # for the values in fixed notation; a chunk of fewer than _MIN_VALUES
    # values, or one with none in fixed notation, goes through the stdlib.
    sizes = []
    fixed = _csv._fixed
    monkeypatch.setattr(_csv, "_fixed", lambda v, text: sizes.append(v.size) or fixed(v, text))
    rng = np.random.default_rng(7)
    short = _csv._MIN_VALUES // 2 - 1
    tiny = np.exp(-rng.uniform(10.0, 700.0, 5000))      # all below 1e-4
    exponent_form = np.column_stack((np.linspace(1e17, 2e17, 5000), tiny))
    mixed = np.column_stack((np.linspace(1.0, 2.0, 5000), tiny))
    for table, want in [(_grid(4095, rng), [8190]), (_grid(4096, rng), [8192]),
                        (_grid(4097, rng), [8192]), (_grid(short, rng), []),
                        (exponent_form, []), (mixed, [4096, 904])]:
        sizes.clear()
        assert _csv.format_csv("h", table) == _reference(table)
        assert sizes == want

