"""Uniform-random replica selection (a baseline the paper dismisses in §6)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .base import StatefulSelector
from .paramspec import STRATEGIES

__all__ = ["RandomParams", "RandomSelector"]


@dataclass(frozen=True, slots=True)
class RandomParams:
    """Uniform-random selection has no tunable parameters."""


@STRATEGIES.register(
    "RAND",
    aliases=("RANDOM",),
    params=RandomParams,
    description="Uniform-random replica choice (the paper's throwaway baseline)",
    context_args=("rng",),
)
class RandomSelector(StatefulSelector):
    """Pick a replica uniformly at random."""

    name = "RAND"

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        self.rng = rng or np.random.default_rng()

    def choose(self, replica_group: Sequence[Hashable], now: float) -> Hashable:
        return replica_group[int(self.rng.integers(len(replica_group)))]
