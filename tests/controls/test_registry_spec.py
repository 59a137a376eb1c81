"""Registry and spec-grammar tests for the control-plane registry.

Checks shared with the strategy registry (duplicate rejection, param
did-you-mean, the pinned canonical-string and digest table) live in
``tests/strategies/test_registry.py``, parametrized over both instances.
"""

from __future__ import annotations

import pytest

from repro.controls import (
    CONTROL_KINDS,
    ControlSpec,
    control_names,
    get_control,
    kind_label,
    resolve_control,
)
from repro.controls.detectors import (
    BinaryFailureDetector,
    PhiAccrualFailureDetector,
)
from repro.controls.hedging import QuantileHedging
from repro.core.rate_control import CubicRateController


class TestRegistryListing:
    def test_builtin_controls_registered(self):
        assert set(control_names()) >= {"binary", "phi", "hedge", "cubic"}

    def test_kind_filtering(self):
        assert set(control_names(kind="detector")) == {"binary", "phi"}
        assert control_names(kind="hedge") == ("hedge",)
        assert control_names(kind="rate") == ("cubic",)

    def test_every_control_has_a_valid_kind(self):
        for name in control_names():
            assert get_control(name).kind in CONTROL_KINDS

    def test_kind_labels(self):
        assert kind_label("detector") == "failure detector"
        assert kind_label("hedge") == "hedging policy"
        assert kind_label("rate") == "rate controller"

    def test_aliases_resolve(self):
        assert resolve_control("GROUND_TRUTH").name == "binary"
        assert resolve_control("PHI_ACCRUAL").name == "phi"
        assert resolve_control("SPECULATIVE").name == "hedge"
        assert resolve_control("SPECULATIVE_RETRY").name == "hedge"
        assert resolve_control("CUBIC_RATE").name == "cubic"

    def test_lookup_is_case_insensitive(self):
        assert resolve_control("PHI").name == "phi"
        assert resolve_control("Hedge").name == "hedge"

    def test_unknown_control_suggests(self):
        with pytest.raises(ValueError, match="phi"):
            resolve_control("phii")

    def test_kind_mismatch_is_a_precise_error(self):
        with pytest.raises(ValueError, match="hedging policy, not a failure detector"):
            resolve_control("hedge", kind="detector")

    def test_param_defaults_exposed(self):
        phi = get_control("phi")
        assert phi.param_defaults()["threshold"] == 8.0
        hedge = get_control("hedge")
        assert hedge.param_defaults()["quantile"] == 0.95


class TestSpecParsing:
    def test_defaults_are_dropped(self):
        # 8.0 is the registered default, so the override vanishes and both
        # spellings share one canonical string, digest, and cache key.
        explicit = ControlSpec.parse("phi:threshold=8")
        bare = ControlSpec.parse("phi")
        assert explicit == bare
        assert explicit.canonical() == "phi"
        assert explicit.digest() == bare.digest()

    def test_non_default_params_round_trip(self):
        spec = ControlSpec.parse("hedge:quantile=0.99,max_extra=2")
        assert spec.params_dict == {"quantile": 0.99, "max_extra": 2}
        assert ControlSpec.parse(spec.canonical()) == spec

    def test_param_alias_expands(self):
        assert ControlSpec.parse("hedge:q=0.99") == ControlSpec.parse("hedge:quantile=0.99")

    def test_mapping_form(self):
        spec = ControlSpec.parse({"name": "phi", "params": {"threshold": 6}})
        assert spec == ControlSpec.parse("phi:threshold=6")

    def test_mapping_form_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown keys"):
            ControlSpec.parse({"name": "phi", "threshold": 6})

    def test_invalid_values_rejected_at_parse_time(self):
        with pytest.raises(ValueError, match="threshold must be positive"):
            ControlSpec.parse("phi:threshold=-1")
        with pytest.raises(ValueError, match="quantile must be in"):
            ControlSpec.parse("hedge:quantile=1.5")
        with pytest.raises(ValueError):
            ControlSpec.parse("cubic:beta=1.5")

    def test_kind_property(self):
        assert ControlSpec.parse("phi").kind == "detector"
        assert ControlSpec.parse("hedge").kind == "hedge"
        assert ControlSpec.parse("cubic").kind == "rate"

    def test_distinct_params_distinct_digests(self):
        assert ControlSpec.parse("phi:threshold=6").digest() != ControlSpec.parse("phi").digest()

    def test_str_is_canonical(self):
        # Values coerce against the registered param dataclass, so integer
        # and float spellings of a float field share one canonical string.
        assert str(ControlSpec.parse("phi:threshold=6")) == "phi:threshold=6.0"
        assert str(ControlSpec.parse("phi:threshold=6.0")) == "phi:threshold=6.0"


class TestSpecBuild:
    def test_binary_build_consumes_context(self):
        class Tracker:
            count = 0

        servers = {0: object()}
        tracker = Tracker()
        detector = ControlSpec.parse("binary").build(down_tracker=tracker, servers=servers)
        assert isinstance(detector, BinaryFailureDetector)
        assert detector.down_tracker is tracker
        assert detector.servers is servers
        assert not detector.suspicious()

    def test_phi_build_applies_overrides(self):
        detector = ControlSpec.parse("phi:threshold=5,window=10").build()
        assert isinstance(detector, PhiAccrualFailureDetector)
        assert detector.threshold == 5.0
        assert detector.window == 10

    def test_hedge_build(self):
        policy = ControlSpec.parse("hedge:quantile=0.9,max_extra=3").build()
        assert isinstance(policy, QuantileHedging)
        assert policy.quantile == 0.9
        assert policy.max_extra == 3

    def test_cubic_build(self):
        controller = ControlSpec.parse("cubic:initial_rate=4,max_rate=40").build()
        assert isinstance(controller, CubicRateController)
        assert controller.srate == 4.0
        assert controller.config.max_rate == 40.0
