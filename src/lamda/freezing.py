"""Gradual freezing schedule for the adapter up-projection rows.

Rows freeze last-index-first on a linear ramp: round(r * (1 - t/t_i))
rows remain trainable before the horizon t_i, zero afterwards. Rounding
to nearest (rather than floor) keeps the schedule's time average equal
to the analytical effective-parameter count.
"""

import math
from dataclasses import dataclass

from .errors import ConfigError, ContractError


@dataclass
class FreezeSchedule:
    rank: int
    freeze_iters: int  # t_i; 0 means the up-projection is never trainable
    total_iters: int

    def __post_init__(self):
        if self.rank < 1:
            raise ConfigError(f"rank must be >= 1, got {self.rank}")
        if not 0 <= self.freeze_iters <= self.total_iters:
            raise ConfigError(
                f"freeze horizon {self.freeze_iters} outside [0, {self.total_iters}]"
            )


def trainable_rows(sched, t):
    """Number of still-trainable rows at iteration t (non-increasing in t)."""
    if not 0 <= t <= sched.total_iters:
        raise ContractError(f"iteration {t} outside [0, {sched.total_iters}]")
    if sched.freeze_iters == 0 or t >= sched.freeze_iters:
        return 0
    return int(math.floor(sched.rank * (1.0 - t / sched.freeze_iters) + 0.5))

