"""The generic CUBIC send-rate controller, registered as a control.

There is exactly one CUBIC implementation in the codebase —
:class:`~repro.core.rate_control.CubicRateController`, parameterized by the
rate-control slice of :class:`~repro.core.config.C3Config` and built on the
shared cubic-curve helpers in :mod:`repro.core.cubic`.  Registering it here
exposes that same implementation through the control-spec grammar
(``"cubic:beta=0.4,smax=20"``) so sweeps and experiments can grid over
rate-control knobs without reaching into strategy internals, and so an
equivalence test can assert that a spec-built controller and a
``C3Config``-built controller agree measurement-for-measurement.

The scheduler composes this controller with backpressure queues
(:mod:`repro.core.backpressure`); backpressure holds requests *because* the
controller's limiter denies a permit — it has no rate logic of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from ..core.config import C3Config
from ..core.rate_control import CubicRateController
from ..strategies.paramspec import CONTROLS

__all__ = ["CubicRateParams", "cubic_config_from_params"]


@dataclass(frozen=True, slots=True)
class CubicRateParams:
    """The rate-control slice of :class:`~repro.core.config.C3Config`.

    Field names and defaults match ``C3Config`` exactly, so a spec override
    maps one-to-one onto the config the controller is built from.
    """

    initial_rate: float = 10.0
    rate_delta_ms: float = 20.0
    beta: float = 0.2
    smax: float = 10.0
    saddle_duration_ms: float = 100.0
    gamma: float | None = None
    hysteresis_ms: float | None = None
    ewma_alpha: float = 0.9
    min_rate: float = 0.1
    max_rate: float | None = None
    rate_excess_tolerance: float = 1.2
    rate_min_utilisation: float = 0.4


def cubic_config_from_params(
    params: Mapping[str, Any], base: C3Config | None = None
) -> C3Config:
    """Apply explicit rate-control overrides onto a (default) ``C3Config``."""
    config = base if base is not None else C3Config()
    return config.copy(**dict(params)) if params else config


def _validate_cubic(params: Mapping[str, Any]) -> None:
    # C3Config.__post_init__ already encodes every value constraint; building
    # a throwaway config surfaces the same ValueError at spec-parse time.
    cubic_config_from_params(params)


def _build_cubic(params: Mapping[str, Any], context: Mapping[str, Any]) -> CubicRateController:
    return CubicRateController(
        cubic_config_from_params(params, context.get("config")),
        server_id=context.get("server_id"),
    )


@CONTROLS.register(
    "cubic",
    kind="rate",
    aliases=("CUBIC_RATE", "C3_RATE"),
    params=CubicRateParams,
    description="CUBIC per-server send-rate adaptation (Algorithm 2, Figure 5)",
    factory=_build_cubic,
    validate=_validate_cubic,
)
class _RegisteredCubicRateController(CubicRateController):
    """Registry anchor; instances are plain :class:`CubicRateController`."""
