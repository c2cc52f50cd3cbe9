"""Shared numerical configuration.

One immutable config object travels through solvers, fractional operators,
and forward verification, so a single seed and tolerance pin down an entire
run end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .special_functions import check_integer

__all__ = ["QuadratureConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class QuadratureConfig:
    """Knobs for deterministic quadrature and Monte Carlo estimation.

    Attributes:
        tol: target absolute error, scaled as tol * (1 + |result|); finite.
        mc_samples: budget of integrand values per probe of the
            quadratic-form lattice rule, an integer >= 1000. The rule uses
            N q <= mc_samples of them: N = 2^m lattice points under
            q >= 16 random shifts (983040 for the default, 49152 for 5e4).
        mc_seed: integer 64-bit seed of the counter-based generator that
            draws the shifts; estimates are bit-identical across runs for
            a fixed seed.

    Improper integrals are always truncated from the integrand's decay
    metadata, at relative tail mass function_model.CUTOFF_EPSILON, and
    panel doubling stops at _quad.MAX_PANELS panels.

    Raises:
        DomainError: a field is out of range, or mc_samples or mc_seed is
            not integral (an integral float such as 5000.0 is stored as int).
    """

    tol: float = 1e-9
    mc_samples: int = 1_000_000
    mc_seed: int = 0xC0FFEE

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise DomainError(f"tol must be finite and > 0, got {self.tol}")
        object.__setattr__(self, "mc_samples", check_integer("mc_samples", self.mc_samples))
        object.__setattr__(self, "mc_seed", check_integer("mc_seed", self.mc_seed))
        if self.mc_samples < 1000:
            raise DomainError(f"mc_samples must be >= 1000, got {self.mc_samples}")
        if not 0 <= self.mc_seed < 2 ** 64:
            raise DomainError(f"mc_seed must fit in 64 bits, got {self.mc_seed}")


DEFAULT_CONFIG = QuadratureConfig()
