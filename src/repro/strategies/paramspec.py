"""Registries of named, parameterized components and their spec grammar.

Strategies (how replicas are ranked) and controls (failure detectors,
hedging policies, rate controllers) are addressed by one small language for
a (name, parameters) point in a design space — ``NAME[:key=value,...]``
with case-insensitive names, JSON-scalar values, param aliases, type
coercion against a frozen param dataclass, and default-value dropping so
every spelling of the same configuration normalizes identically.

This module holds that whole mechanism once: the grammar and coercion
rules, :class:`Registry` (names, aliases, params, factories, did-you-mean
lookup) and :class:`Spec` (one validated, canonical point with a content
digest), plus the two registry instances — :data:`STRATEGIES` with
:class:`StrategySpec` and :data:`CONTROLS` with :class:`ControlSpec`.
Selector and control modules register into those instances; the public
``register_strategy``/``resolve_control``/... names of
:mod:`repro.strategies` and :mod:`repro.controls` are bindings onto them.
No simulator imports live here.
"""

from __future__ import annotations

import dataclasses
import difflib
import hashlib
import json
import math
import types
import typing
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Iterable, Mapping, TypeVar

__all__ = [
    "CONTROLS",
    "STRATEGIES",
    "ControlSpec",
    "Entry",
    "Registry",
    "Spec",
    "StrategySpec",
    "accepted_types",
    "coerce_value",
    "describe_types",
    "format_params",
    "format_value",
    "parse_spec_string",
    "parse_value",
    "resolve_param_overrides",
    "spec_digest",
]

#: Optional early validation hook over the explicit (alias-resolved) params.
Validator = Callable[[Mapping[str, Any]], None]
#: Builder: (explicit params, keyword runtime context) -> component instance.
#: The context carries live objects (RNG streams, ground-truth callbacks,
#: the base ``C3Config``, the shared crash tracker) that only exist inside a
#: run, deliberately apart from the declarative, hashed parameters.
Factory = Callable[[Mapping[str, Any], Mapping[str, Any]], Any]


def _close_match(word: str, candidates: Iterable[str]) -> str | None:
    """The closest candidate to a misspelled ``word``, if one is plausible."""
    close = difflib.get_close_matches(word, sorted(candidates), n=1)
    return close[0] if close else None


def parse_value(raw: str) -> Any:
    """A spec-string parameter value: JSON scalar, falling back to string."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def format_value(value: Any) -> str:
    """Format one canonical param value so that parsing round-trips it."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)  # shortest repr; json.loads round-trips it exactly
    if isinstance(value, int):
        return str(value)
    text = str(value)
    if any(sep in text for sep in (",", "=", ":")) or text != text.strip():
        raise ValueError(f"cannot format parameter value {value!r} in spec syntax")
    return text


def format_params(params: Mapping[str, Any] | tuple[tuple[str, Any], ...]) -> str:
    """Render ``key=value`` pairs in canonical spec syntax."""
    items = params.items() if isinstance(params, Mapping) else params
    return ",".join(f"{key}={format_value(value)}" for key, value in items)


def parse_spec_string(text: str, label: str = "spec") -> tuple[str, dict[str, Any]]:
    """Split ``NAME[:key=value,...]`` into a name and raw params.

    ``label`` names the spec family in error messages ("strategy spec",
    "control spec").
    """
    name, sep, param_text = text.partition(":")
    if not name.strip():
        raise ValueError(f"{label} {text!r} has an empty name")
    if not sep:
        return name, {}
    params: dict[str, Any] = {}
    if not param_text.strip():
        raise ValueError(f"{label} {text!r} has a ':' but no parameters")
    for pair in param_text.split(","):
        key, eq, raw = pair.partition("=")
        key = key.strip()
        if not eq or not key:
            raise ValueError(
                f"malformed parameter {pair.strip()!r} in {label} {text!r}; "
                f"expected KEY=VALUE"
            )
        if key in params:
            raise ValueError(f"parameter {key!r} repeated in {label} {text!r}")
        params[key] = parse_value(raw.strip())
    return name, params


def spec_digest(name: str, params: Mapping[str, Any]) -> str:
    """A stable sha256 content digest over a canonical (name, params) pair."""
    payload = json.dumps(
        {"name": name, "params": dict(params)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Type coercion against a frozen param dataclass.
# ---------------------------------------------------------------------------


def _type_hints(params_cls: type) -> dict[str, Any]:
    # Evaluated lazily (modules use `from __future__ import annotations`).
    return typing.get_type_hints(params_cls)


def accepted_types(hint: Any) -> tuple[set[type], bool]:
    """The concrete types a field hint accepts, plus whether None is allowed."""
    if hint is type(None):
        return set(), True
    origin = typing.get_origin(hint)
    if origin is typing.Union or origin is types.UnionType:
        accepted: set[type] = set()
        allows_none = False
        for arg in typing.get_args(hint):
            arg_types, arg_none = accepted_types(arg)
            accepted |= arg_types
            allows_none = allows_none or arg_none
        return accepted, allows_none
    return {hint}, False


def describe_types(accepted: set[type]) -> str:
    return " | ".join(sorted(t.__name__ for t in accepted)) or "nothing"


def coerce_value(subject: str, field_name: str, value: Any, hint: Any) -> Any:
    """Coerce ``value`` to the field's annotated type or raise ``ValueError``.

    ``subject`` names the owner in error messages, e.g. ``"strategy C3"``.
    """
    accepted, allows_none = accepted_types(hint)
    if value is None:
        if allows_none:
            return None
        raise ValueError(f"parameter {field_name!r} of {subject} does not accept null")
    if bool in accepted and isinstance(value, bool):
        return value
    if isinstance(value, bool):  # bool is an int subclass; keep it out of numbers
        raise ValueError(
            f"parameter {field_name!r} of {subject} expects "
            f"{describe_types(accepted)}, got a boolean"
        )
    if float in accepted and isinstance(value, (int, float)):
        # Non-finite values would break the canonical-string round trip
        # (repr(nan)/repr(inf) are not JSON) and make no sense as knobs.
        if not math.isfinite(value):
            raise ValueError(
                f"parameter {field_name!r} of {subject} must be finite, got {value!r}"
            )
        return float(value)
    if int in accepted and isinstance(value, int):
        return int(value)
    if int in accepted and isinstance(value, float) and value.is_integer():
        return int(value)
    if str in accepted and isinstance(value, str):
        return value
    raise ValueError(
        f"parameter {field_name!r} of {subject} expects "
        f"{describe_types(accepted)}, got {value!r}"
    )


def resolve_param_overrides(
    params_cls: type,
    params: Mapping[str, Any],
    *,
    subject: str,
    param_aliases: Mapping[str, str] | None = None,
    validate: Validator | None = None,
) -> dict[str, Any]:
    """Validate and normalize explicit params against a param dataclass.

    Aliases are expanded to canonical field names, unknown keys are rejected
    with a did-you-mean suggestion, values are coerced to the annotated field
    types, and entries equal to the registered default are dropped — so two
    spellings of the same configuration normalize identically (and a bare
    name stays a bare name).
    """
    aliases = dict(param_aliases or {})
    fields_by_name = {f.name: f for f in dataclasses.fields(params_cls)}
    hints = _type_hints(params_cls)
    defaults_instance = params_cls()
    defaults = {name: getattr(defaults_instance, name) for name in fields_by_name}
    valid = sorted(set(fields_by_name) | set(aliases))
    resolved: dict[str, Any] = {}
    for key, raw in params.items():
        field_name = aliases.get(key, key)
        if field_name not in fields_by_name:
            close = _close_match(key, valid)
            hint = f"; did you mean {close!r}?" if close else ""
            raise ValueError(
                f"unknown parameter {key!r} for {subject}"
                f" (valid parameters: {', '.join(valid) or '(none)'}){hint}"
            )
        if field_name in resolved:
            raise ValueError(
                f"parameter {field_name!r} of {subject} given more than once "
                f"(an alias and its target, or a repeated key)"
            )
        resolved[field_name] = coerce_value(subject, field_name, raw, hints[field_name])
    # Canonical form: a param explicitly set to its registered default is
    # indistinguishable from an unset param (both mean "the paper's value").
    normalized = {
        name: value for name, value in resolved.items() if value != defaults[name]
    }
    if validate is not None:
        validate(normalized)
    return normalized


# ---------------------------------------------------------------------------
# The registry: canonical names, aliases, params and factories.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Entry:
    """One registration: canonical name, kind, aliases, params, builder."""

    name: str
    kind: str | None
    aliases: tuple[str, ...]
    params_cls: type
    description: str
    factory: Factory
    param_aliases: Mapping[str, str]
    validate: Validator | None
    requires: tuple[str, ...]

    def param_defaults(self) -> dict[str, Any]:
        """``{field name: default value}`` of the param dataclass."""
        instance = self.params_cls()
        return {f.name: getattr(instance, f.name) for f in dataclasses.fields(self.params_cls)}

    def aliases_for(self, field_name: str) -> tuple[str, ...]:
        """Registered short-hand aliases mapping to ``field_name``, sorted."""
        return tuple(
            sorted(alias for alias, target in self.param_aliases.items() if target == field_name)
        )


def _default_factory(cls: type, context_args: tuple[str, ...]) -> Factory:
    """Build ``cls(**param fields, **the requested context entries)``."""

    def build(params: Mapping[str, Any], context: Mapping[str, Any]) -> Any:
        return cls(**params, **{arg: context.get(arg) for arg in context_args})

    return build


class Registry:
    """Case-insensitive registrations of one component family.

    ``noun`` names the family in messages ("strategy", "control"); ``kinds``
    maps each allowed ``kind`` to its human-readable label (empty: the
    family has no kinds).
    """

    def __init__(self, noun: str, kinds: Mapping[str, str] | None = None) -> None:
        self.noun = noun
        self.kinds = dict(kinds or {})
        self._entries: dict[str, Entry] = {}
        #: Stripped, lower-cased name/alias token -> canonical name.
        self._lookup: dict[str, str] = {}

    def register(
        self,
        name: str,
        *,
        kind: str | None = None,
        aliases: tuple[str, ...] = (),
        params: type,
        description: str,
        context_args: tuple[str, ...] = (),
        param_aliases: Mapping[str, str] | None = None,
        factory: Factory | None = None,
        requires: tuple[str, ...] = (),
        validate: Validator | None = None,
    ) -> Callable[[type], type]:
        """Class decorator registering a component under ``name``.

        Parameters
        ----------
        name:
            Canonical name (``"C3"``, ``"phi"``); matching is
            case-insensitive everywhere.
        kind:
            The family subdivision (controls: ``"detector"``, ``"hedge"``,
            ``"rate"``); ``None`` for registries without kinds.
        aliases:
            Alternate names accepted wherever the component is referenced.
        params:
            Frozen dataclass of the tunable parameters; field defaults are
            the paper's (or Cassandra's) values.
        description:
            One-line description for the CLI listing and the README tables.
        context_args:
            Runtime-context keys the default factory forwards to the
            constructor (ignored when ``factory`` is given).
        param_aliases:
            Short-hand parameter spellings (paper notation) mapped to field
            names, e.g. ``{"cubic_c": "gamma"}``.
        factory:
            Custom builder ``(explicit params, context) -> instance`` for
            components whose parameters do not splat into the constructor.
        requires:
            Context keys that must be non-None to build the component (e.g.
            the oracle's ground-truth callback).
        validate:
            Optional hook raising ``ValueError`` for invalid *values* at spec
            parse time (unknown names/keys are always rejected).
        """
        if not dataclasses.is_dataclass(params):
            raise TypeError(f"params must be a dataclass, got {params!r}")
        if self.kinds and kind not in self.kinds:
            raise ValueError(
                f"{self.noun} {name!r} declares unknown kind {kind!r}; "
                f"valid kinds: {', '.join(self.kinds)}"
            )
        resolved_aliases = dict(param_aliases or {})
        bad = sorted(set(resolved_aliases.values()) - {f.name for f in dataclasses.fields(params)})
        if bad:
            raise ValueError(f"param_aliases target unknown fields {bad} on {params.__name__}")
        if name in self._entries:
            raise ValueError(f"{self.noun} {name!r} is already registered")
        tokens = {self._token(name), *(self._token(alias) for alias in aliases)}
        for token in sorted(tokens):
            owner = self._lookup.get(token)
            if owner is not None:
                raise ValueError(
                    f"{self.noun} name/alias {token!r} is already registered by {owner!r}"
                )

        def decorator(cls: type) -> type:
            self._entries[name] = Entry(
                name=name,
                kind=kind,
                aliases=tuple(aliases),
                params_cls=params,
                description=description,
                factory=factory or _default_factory(cls, tuple(context_args)),
                param_aliases=resolved_aliases,
                validate=validate,
                requires=tuple(requires),
            )
            for token in tokens:
                self._lookup[token] = name
            return cls

        return decorator

    @staticmethod
    def _token(text: str) -> str:
        return text.strip().lower()

    def names(self, kind: str | None = None) -> tuple[str, ...]:
        """Registered canonical names (optionally one kind), in order."""
        return tuple(name for name, entry in self._entries.items() if kind in (None, entry.kind))

    def get(self, name: str) -> Entry:
        """The registration for a *canonical* name (KeyError when absent)."""
        return self._entries[name]

    def kind_label(self, kind: str | None) -> str:
        """The human-readable name of a kind (``"detector"`` → ...)."""
        return self.kinds[kind] if kind is not None else self.noun

    def resolve(self, name: str, kind: str | None = None) -> Entry:
        """Look a component up by name or alias, case-insensitively.

        ``kind`` narrows the lookup to one kind: a valid name of another
        kind is rejected with a message naming both, and the did-you-mean
        candidates are restricted to that kind.  Unknown names raise
        ``ValueError`` listing the valid names plus a closest match.
        """
        if not isinstance(name, str):
            raise TypeError(f"{self.noun} name must be a string, got {type(name).__name__}")
        wanted = f"{self.kind_label(kind)}s" if kind is not None else "names"
        valid = ", ".join(self.names(kind)) or "(none)"
        canonical = self._lookup.get(self._token(name))
        if canonical is None:
            pool = (
                token
                for token, owner in self._lookup.items()
                if kind in (None, self._entries[owner].kind)
            )
            close = _close_match(self._token(name), pool)
            hint = f"; did you mean {self._lookup[close]!r}?" if close else ""
            raise ValueError(f"unknown {self.noun} {name!r}; valid {wanted}: {valid}{hint}")
        entry = self._entries[canonical]
        if kind is not None and entry.kind != kind:
            raise ValueError(
                f"{self.noun} {entry.name!r} is a {self.kind_label(entry.kind)}, not a "
                f"{self.kind_label(kind)}; valid {wanted}: {valid}"
            )
        return entry


# ---------------------------------------------------------------------------
# The spec: one canonical (name, params) point of a registry.
# ---------------------------------------------------------------------------

SpecT = TypeVar("SpecT", bound="Spec")


@dataclass(frozen=True)
class Spec:
    """A validated, canonical ``(name, parameters)`` pair of one registry.

    Subclasses bind :attr:`registry` (:class:`StrategySpec`,
    :class:`ControlSpec`).  Construct via :meth:`parse` (or :meth:`of`);
    the constructor itself does not validate, so hand-built instances
    bypass canonicalization.  ``params`` is a sorted tuple of ``(field
    name, value)`` pairs holding only the *explicit, non-default*
    overrides: the name is the registry's canonical name, param aliases
    are expanded, values are coerced to the registered field types, and
    parameters equal to the registered default are dropped — so every
    spelling of one configuration (``"c3"``, ``"C3:score_exponent=3"``,
    ``{"name": "c3"}``) shares one spec, one canonical string and one
    digest, and ``parse(spec.canonical()) == spec`` always holds.
    """

    registry: ClassVar[Registry]

    name: str
    params: tuple[tuple[str, Any], ...] = ()

    # ----------------------------------------------------------- construction
    @classmethod
    def parse(
        cls: type[SpecT], value: "str | Mapping[str, Any] | Spec", kind: str | None = None
    ) -> SpecT:
        """Parse and canonicalize a reference given as a string, a mapping
        (``{"name": ..., "params": {...}}``) or a spec of this class.

        ``kind`` restricts the lookup to one kind of the registry (e.g. a
        config field accepting only hedging policies).
        """
        noun = cls.registry.noun
        if isinstance(value, cls):
            return cls.of(value.name, value.params_dict, kind)
        if isinstance(value, str):
            name, params = parse_spec_string(value, label=f"{noun} spec")
            return cls.of(name, params, kind)
        if isinstance(value, Mapping):
            unknown = sorted(set(value) - {"name", "params"})
            if unknown:
                raise ValueError(
                    f"unknown keys {unknown} in {noun} mapping; expected "
                    f"{{'name': ..., 'params': {{...}}}}"
                )
            if "name" not in value:
                raise ValueError(f"{noun} mapping needs a 'name' key")
            return cls.of(value["name"], dict(value.get("params") or {}), kind)
        raise TypeError(
            f"cannot parse a {noun} from {type(value).__name__}; "
            f"expected str, mapping, or {cls.__name__}"
        )

    @classmethod
    def of(
        cls: type[SpecT],
        name: str,
        params: Mapping[str, Any] | None = None,
        kind: str | None = None,
    ) -> SpecT:
        """Build a canonical spec from a name and explicit params."""
        entry = cls.registry.resolve(name, kind)
        resolved = resolve_param_overrides(
            entry.params_cls,
            dict(params or {}),
            subject=f"{cls.registry.noun} {entry.name}",
            param_aliases=entry.param_aliases,
            validate=entry.validate,
        )
        return cls(name=entry.name, params=tuple(sorted(resolved.items())))

    # ------------------------------------------------------------- inspection
    @property
    def params_dict(self) -> dict[str, Any]:
        """The explicit overrides as a plain dict."""
        return dict(self.params)

    @property
    def info(self) -> Entry:
        """This spec's registry entry."""
        return self.registry.resolve(self.name)

    @property
    def kind(self) -> str | None:
        """The entry's kind (``None`` in registries without kinds)."""
        return self.info.kind

    def canonical(self) -> str:
        """The canonical string form (parses back to an equal spec)."""
        if not self.params:
            return self.name
        return f"{self.name}:{format_params(self.params)}"

    def digest(self) -> str:
        """A stable content digest of the canonical spec.

        Two references to the same configuration — whatever their spelling
        — share a digest; any parameter change produces a new one.  This is
        what keeps runner cache keys and golden digests deterministic.
        """
        return spec_digest(self.name, self.params_dict)

    def __str__(self) -> str:
        return self.canonical()

    # ------------------------------------------------------------------ build
    def build(self, **context: Any) -> Any:
        """Instantiate this spec's component with keyword runtime context.

        Which keys a component consumes is registration-specific (selectors
        take ``rng``, ``server_state_fn``, ``iowait_fn``,
        ``record_rate_history``, ``c3_config``; detectors ``down_tracker``
        and ``servers``); absent keys read as ``None``.
        """
        entry = self.info
        for requirement in entry.requires:
            if context.get(requirement) is None:
                raise ValueError(
                    f"the {entry.name} {self.registry.noun} requires {requirement}"
                )
        return entry.factory(self.params_dict, context)


#: Replica-selection strategies (:mod:`repro.strategies`).
STRATEGIES = Registry("strategy")

#: Adaptive controls around selection (:mod:`repro.controls`), by kind.
CONTROLS = Registry(
    "control",
    kinds={"detector": "failure detector", "hedge": "hedging policy", "rate": "rate controller"},
)


class StrategySpec(Spec):
    """A canonical ``(strategy, parameters)`` pair; what
    ``SimulationConfig.strategy`` stores and sweep cache keys hash."""

    registry = STRATEGIES


class ControlSpec(Spec):
    """A canonical ``(control, parameters)`` pair (detector, hedging or rate)."""

    registry = CONTROLS
