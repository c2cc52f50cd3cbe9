import os
import pathlib

import numpy as np
import pytest

from fraclamb import CallableFunction, Exponential, GaussTail, ShiftedGaussian

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
