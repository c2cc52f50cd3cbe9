import os
import pathlib
from typing import NamedTuple

import numpy as np
import pytest

from fraclamb import CallableFunction, Exponential, GaussTail, ShiftedGaussian
from fraclamb.function_model import BUILTIN_ORDER

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def subprocess_env(extra=None):
    """Environment for a child process that imports fraclamb from this
    checkout, updated with ``extra``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update(extra or {})
    return env


@pytest.fixture
def family():
    """One instance of each built-in function kind."""
    return [
        Exponential(1.0),
        Exponential(2.0),
        GaussTail(1.0, 0.0),
        ShiftedGaussian(1.0, 0.0),
    ]


def rel_error(got, want, floor=0.0):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = np.max(np.abs(want)) if want.size else 0.0
    denom = np.maximum(np.abs(want), floor * scale if scale > 0 else 1e-300)
    denom = np.where(denom == 0.0, 1e-300, denom)
    return float(np.max(np.abs(got - want) / denom))


def nan_left_of_minus_three():
    """e^x whose derivatives turn NaN left of -3. Every quadform probe on
    [-1, 1] samples there, so every forward value is NaN."""
    return CallableFunction(
        np.exp,
        derivative=lambda k, x: np.where(x < -3.0, np.nan, np.exp(x)),
        derivative_order=8,
        tail_bound=Exponential(1.0).tail_bound,
        label="nan_left",
    )


def zero_function():
    """f = 0: its values, derivatives and tail bound are all 0."""
    zeros = lambda x: np.zeros(np.shape(x), dtype=float)
    return CallableFunction(zeros, derivative=lambda k, x: zeros(x),
                            derivative_order=BUILTIN_ORDER, tail_bound=lambda L: 0.0,
                            label="zero")


def combination(a, f, b, g):
    """a f + b g with derivatives up to the lower order of the two. Its bounds
    are |a| times f's plus |b| times g's; it has no closed-form cutoff guess."""
    return CallableFunction(
        lambda x: a * f.evaluate(x) + b * g.evaluate(x),
        derivative=lambda k, x: a * f.derivative(k, x) + b * g.derivative(k, x),
        derivative_order=min(f.derivative_order, g.derivative_order),
        tail_bound=lambda L: abs(a) * f.tail_bound(L) + abs(b) * g.tail_bound(L),
        value_tail_bound=lambda L: abs(a) * f.value_tail_bound(L) + abs(b) * g.value_tail_bound(L),
        label=f"{a:g} {f.label} + {b:g} {g.label}",
    )


class Grid(NamedTuple):
    nodes: np.ndarray
    values: np.ndarray


def read_csv(text):
    """The nodes and values of an 'x,value' CSV artifact, parsed with float."""
    lines = text.splitlines()
    assert lines[0] == "x,value"
    rows = [[float(field) for field in line.split(",")] for line in lines[1:]]
    return Grid(*np.array(rows).T)
