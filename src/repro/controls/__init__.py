"""Adaptive controls: failure detection, hedging, and rate control.

The third registry of the reproduction (after scenarios and strategies).
Controls are the adaptive machinery *around* replica selection — how
clients decide a replica is dead (``kind="detector"``), when they issue
extra request copies (``kind="hedge"``), and how per-server send rates
adapt (``kind="rate"``).  They register into
:data:`~repro.strategies.paramspec.CONTROLS`, the control instance of the
one registry class strategies use, so every control is addressed by the
same canonical spec grammar (``"phi:threshold=8"``,
``"hedge:quantile=0.95,max_extra=1"``) via :class:`ControlSpec`, and the
three axes compose freely: any selector × any detector × any hedging
policy is a valid sweep point with its own cache key.
"""

from ..strategies.paramspec import CONTROLS, ControlSpec

# Importing the implementation modules registers the built-in controls; the
# import order below fixes the registry listing order (detectors, hedging,
# rate control).
from .detectors import (
    BinaryFailureDetector,
    FailureDetector,
    PhiAccrualFailureDetector,
)
from .hedging import QuantileHedging
from .rate import cubic_config_from_params

__all__ = [
    "CONTROL_KINDS",
    "BinaryFailureDetector",
    "ControlSpec",
    "FailureDetector",
    "PhiAccrualFailureDetector",
    "QuantileHedging",
    "control_names",
    "cubic_config_from_params",
    "get_control",
    "kind_label",
    "register_control",
    "resolve_control",
]

register_control = CONTROLS.register
resolve_control = CONTROLS.resolve
get_control = CONTROLS.get
control_names = CONTROLS.names
kind_label = CONTROLS.kind_label

#: The control families a registration may declare.
CONTROL_KINDS = tuple(CONTROLS.kinds)
