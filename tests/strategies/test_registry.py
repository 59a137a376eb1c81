"""Tests shared by the two spec registries (strategies and controls).

Strategies and controls are two instances of one
:class:`~repro.strategies.paramspec.Registry` with one
:class:`~repro.strategies.paramspec.Spec` class, so the registration,
lookup and grammar guarantees are checked once, parametrized over both.
Family-specific behaviour (C3 params, control kinds, builds) stays in
``test_spec.py`` and ``tests/controls/test_registry_spec.py``.
"""

import pytest

from repro.controls import ControlSpec
from repro.strategies import StrategySpec
from repro.strategies.paramspec import CONTROLS, STRATEGIES

#: family id -> (registry, spec class, a registered name, a misspelled
#: param of that name and the param it should suggest).
FAMILIES = {
    "strategy": (STRATEGIES, StrategySpec, "C3", "cubicc", "cubic_c"),
    "control": (CONTROLS, ControlSpec, "phi", "treshold", "threshold"),
}

#: Canonical string and content digest of every registered name and of
#: parameterized specs, recorded before strategies and controls shared one
#: registry class.  These are cache keys: a change invalidates every cached
#: sweep trial.
PINNED = [
    ("strategy", "C3", "C3", "88195afd91f230da97fe6548cc7bf87cac57440ace5321756b9ebbca4fc72495"),
    ("strategy", "ORA", "ORA", "b4a6a0fd912d9a97fe840108484a70458637b6a375fe7966c5c1ad800237058a"),
    ("strategy", "LOR", "LOR", "db996231b88ecae96b497f553c10e38ac7d9058e96fcf216140d285c0ae5c9e9"),
    ("strategy", "RR", "RR", "2f249bd138d88badd96d492b0f17180c42c1535556dd6c2498707d36cf1859a2"),
    ("strategy", "RAND", "RAND",
     "9cb26c091992a07b833994fda4df265284312d1811e8324407bdefa4c63ab42c"),
    ("strategy", "LRT", "LRT", "9ccc9eec096152c795cb27dfa2a09453e938439cd16955e0e577c78a54ec74da"),
    ("strategy", "P2C", "P2C", "b307d5724fe047dd358b419f7016ac3b45f8a799430730d585cf05e4a11f5dfc"),
    ("strategy", "WRAND", "WRAND",
     "69d3edf40b3bf5e7a53ee972cc93f5cb169f1494f0d48f1cb87b02607ebb58d8"),
    ("strategy", "DS", "DS", "d95a694ac0baca021de5e735a5470bed2f8536bf73b46f89524261de7c6e17e7"),
    ("control", "binary", "binary",
     "f2a73f1d624d65a6ee91f7389893012a6cd255114547a89b628e4159cfca5c87"),
    ("control", "phi", "phi", "89a69edd736e721d1a2b0bf67776628e8fab560ef000915bf0bd1e8d9c6afdc7"),
    ("control", "hedge", "hedge",
     "17e67a8c43ed3c0b4bc115bb76cc8df4b4c994c451958a5af69dc792097b605e"),
    ("control", "cubic", "cubic",
     "1e2f9bd47d78cb89f31a0f3c59bc2ed3c15830bc1ee99e1a1b241d329e78ee14"),
    ("strategy", "c3:cubic_c=2e-4,b=3", "C3:gamma=0.0002",
     "911465971e4b05cfad66308eb856c7bc6dac18a5c56966c32e5c2293de29c368"),
    ("strategy", "C3:score_exponent=3", "C3",
     "88195afd91f230da97fe6548cc7bf87cac57440ace5321756b9ebbca4fc72495"),
    ("strategy", "c3:beta=0.5,delta_ms=10", "C3:beta=0.5,rate_delta_ms=10.0",
     "e4fe525891047757c57bc8bc1eeb8d17f3b47f772f83a075db7ca25e00efab47"),
    ("strategy", "rr:rate_limited=false", "RR:rate_limited=false",
     "578285dd19762e7a7a16e06df437ec8195431a99f3f9285a5c37eeec09e3adda"),
    ("strategy", "p2c:alpha=0.5", "P2C:alpha=0.5",
     "75e39068ab23559e37b91894d451419ae2b46c02080cffa619cb7dad937d4813"),
    ("strategy", "ds:update_interval_ms=50,badness_threshold=0.2",
     "DS:badness_threshold=0.2,update_interval_ms=50.0",
     "04f28f4ecc312f1ce5e35233ce29f4bdec4247953eb23f566bde110616032051"),
    ("strategy", "wrand:alpha=0.8", "WRAND:alpha=0.8",
     "4a862d64760d50e6b622b2c6dee2d0400ffcb6898d3a7ac57387d392f5850918"),
    ("strategy", "lrt:alpha=0.5", "LRT:alpha=0.5",
     "425aae1e88db005b2eb68dfa7d2106fc9348c9f8d34f4bcc4b388535d647b87b"),
    ("control", "phi:threshold=6", "phi:threshold=6.0",
     "7e8bc272170c1b6530f7b5f353f243217f2594e866d1a70efe257886d6c06797"),
    ("control", "hedge:quantile=0.99", "hedge:quantile=0.99",
     "c0cabe402526ea1a1b06be89b7b8a0984c89bd60dbd83c6550d6b608de79749c"),
    ("control", "hedge:q=0.99,max_extra=2", "hedge:max_extra=2,quantile=0.99",
     "d5374513991702bfb9b0d964c3c435eabb424bf82e2d3b141273bf9cb3f837b7"),
    ("control", "cubic:initial_rate=50,rate_delta_ms=5", "cubic:initial_rate=50.0,rate_delta_ms=5.0",
     "b399ff1bfec2f8af6a7675cbb74b55dff33a18a857cc87992f8964afdf9b93a9"),
    ("control", "speculative:min_samples=10,history=200", "hedge:history=200,min_samples=10",
     "320919765e8135b11e3f9b35c2d91dbfcdad56076bcde451a9caca30707754b9"),
]


@pytest.fixture(params=sorted(FAMILIES))
def family(request):
    return FAMILIES[request.param]


class TestRegistration:
    def test_duplicate_name_rejected(self, family):
        registry, _, name, _, _ = family
        entry = registry.get(name)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(
                name, kind=entry.kind, params=entry.params_cls, description="duplicate"
            )

    def test_duplicate_alias_rejected(self, family):
        registry, _, name, _, _ = family
        entry = registry.get(name)
        taken = registry.names()[-1].lower()
        with pytest.raises(ValueError, match="already registered"):
            registry.register(
                "fresh-name", kind=entry.kind, aliases=(taken,), params=entry.params_cls,
                description="duplicate",
            )
        with pytest.raises(ValueError, match="unknown"):
            registry.resolve("fresh-name")

    def test_param_aliases_must_target_fields(self, family):
        registry, _, name, _, _ = family
        entry = registry.get(name)
        with pytest.raises(ValueError, match="unknown fields"):
            registry.register(
                "fresh-name", kind=entry.kind, params=entry.params_cls,
                description="bad alias", param_aliases={"x": "no_such_field"},
            )


class TestSpecGrammar:
    def test_every_name_resolves_in_any_case_and_stays_bare(self, family):
        registry, spec_cls, _, _, _ = family
        for name in registry.names():
            for spelling in (name, name.lower(), name.upper(), f"  {name} "):
                spec = spec_cls.parse(spelling)
                assert spec.canonical() == name
                assert spec_cls.parse(spec.canonical()) == spec

    def test_unknown_name_did_you_mean(self, family):
        registry, spec_cls, name, _, _ = family
        with pytest.raises(ValueError, match=f"did you mean {name!r}"):
            spec_cls.parse(name + "x")

    def test_unknown_param_did_you_mean(self, family):
        _, spec_cls, name, typo, suggestion = family
        with pytest.raises(ValueError, match=f"did you mean {suggestion!r}"):
            spec_cls.parse(f"{name}:{typo}=1")

    def test_other_registries_spec_is_not_accepted(self, family):
        _, spec_cls, _, _, _ = family
        other = ControlSpec.parse("phi") if spec_cls is StrategySpec else StrategySpec.parse("C3")
        assert other != spec_cls(name=other.name, params=other.params)
        with pytest.raises(TypeError, match=spec_cls.__name__):
            spec_cls.parse(other)


@pytest.mark.parametrize(
    "family_id,text,canonical,digest", PINNED, ids=[f"{row[0]}-{row[1]}" for row in PINNED]
)
def test_pinned_canonical_string_and_digest(family_id, text, canonical, digest):
    spec = FAMILIES[family_id][1].parse(text)
    assert spec.canonical() == canonical
    assert spec.digest() == digest
