"""The one registry of named protection mechanisms.

Every named mechanism is one :class:`MechanismSpec` row here, and

- :data:`MECHANISM_NAMES` (the ``repro.api`` surface),
- :func:`defense_for_mechanism` / :func:`named_defense_configs`
  (``bench.harness.CONFIGS``),
- :func:`mechanism_for` (the DefenseConfig -> ProtectionMechanism map),
- :data:`FUZZ_MATRIX` (the differential oracle's mechanism matrix)

are all derived from it.  ``tests/baselines/test_registry.py`` asserts
the derivations stay consistent, so a forgotten registration fails a
test instead of silently narrowing coverage.

Ordering: :data:`FUZZ_MATRIX` follows *registration order* because the
fuzz-corpus format pins it (append-only — see ``repro.fuzz.oracle``).
New mechanisms must be registered after existing ones.
"""

import importlib
from dataclasses import dataclass, field

#: registration order (append-only: the fuzz corpus embeds this order)
_ORDER = []
_REGISTRY = {}


@dataclass(frozen=True)
class MechanismSpec:
    """One named mechanism: its DefenseConfig shape and implementation."""

    name: str
    #: ("module", "ClassName") resolved lazily (mechanism modules import
    #: this package's base class, so eager imports would cycle)
    runner: tuple
    #: kwargs for the DefenseConfig serving this mechanism by name
    defense_kwargs: dict = field(default_factory=dict)
    #: part of the differential fuzz matrix (all current mechanisms are)
    fuzzed: bool = True

    def mechanism_class(self):
        module, attr = self.runner
        return getattr(importlib.import_module(module), attr)


def register(spec):
    if spec.name in _REGISTRY:
        raise ValueError("mechanism %r already registered" % spec.name)
    _REGISTRY[spec.name] = spec
    _ORDER.append(spec.name)
    return spec


register(
    MechanismSpec(
        name="bastion",
        runner=("repro.mechanisms.bastion", "BastionMechanism"),
        # bastion carries a ContextPolicy: repro.api.ProtectConfig.defense
        # builds its DefenseConfig from the full config, not from here.
        defense_kwargs=None,
    )
)
register(
    MechanismSpec(
        name="seccomp_allowlist",
        runner=("repro.mechanisms.baselines", "SeccompAllowlistMechanism"),
        defense_kwargs={"baseline": "seccomp_allowlist"},
    )
)
register(
    MechanismSpec(
        name="temporal",
        runner=("repro.mechanisms.baselines", "TemporalMechanism"),
        defense_kwargs={"baseline": "temporal"},
    )
)
register(
    MechanismSpec(
        name="debloat",
        runner=("repro.mechanisms.baselines", "DebloatMechanism"),
        defense_kwargs={"baseline": "debloat"},
    )
)
register(
    MechanismSpec(
        name="binary_only",
        runner=("repro.mechanisms.binary", "BinaryOnlyMechanism"),
        defense_kwargs={"baseline": "binary_only"},
    )
)
register(
    MechanismSpec(
        name="llvm_cfi",
        runner=("repro.mechanisms.baselines", "StaticMechanism"),
        defense_kwargs={"llvm_cfi": True},
    )
)
register(
    MechanismSpec(
        name="dfi",
        runner=("repro.mechanisms.baselines", "StaticMechanism"),
        defense_kwargs={"dfi": True},
    )
)
register(
    MechanismSpec(
        name="sfip",
        runner=("repro.mechanisms.sfip", "SfipMechanism"),
        defense_kwargs={"baseline": "sfip"},
    )
)
register(
    MechanismSpec(
        name="sfip_origin",
        runner=("repro.mechanisms.sfip", "SfipOriginMechanism"),
        defense_kwargs={"baseline": "sfip_origin"},
    )
)


def spec_for(name):
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ValueError(
            "unknown mechanism %r (expected one of %s)"
            % (name, ", ".join(MECHANISM_NAMES))
        )
    return spec


#: every name ``ProtectConfig(mechanism=...)`` accepts (bastion first,
#: then the baselines sorted — the pre-registry surface, preserved)
MECHANISM_NAMES = ("bastion",) + tuple(
    sorted(n for n in _ORDER if n != "bastion")
)

#: the differential fuzz oracle's mechanism matrix, in registration
#: order — part of the corpus format, append only
FUZZ_MATRIX = tuple(n for n in _ORDER if _REGISTRY[n].fuzzed)


def defense_for_mechanism(name, label=None):
    """The DefenseConfig for a *named* non-BASTION mechanism.

    ``bastion`` is deliberately not served here: it carries a policy, so
    :meth:`repro.api.ProtectConfig.defense` builds it from the full
    config.  Unknown names raise ``ValueError`` listing the registry.
    """
    from repro.bench.harness import DefenseConfig

    spec = spec_for(name)
    if spec.defense_kwargs is None:
        raise ValueError(
            "unknown mechanism %r (expected one of %s)"
            % (name, ", ".join(n for n in MECHANISM_NAMES if n != "bastion"))
        )
    return DefenseConfig(label or name, **spec.defense_kwargs)


def named_defense_configs():
    """``{name: DefenseConfig}`` for every named non-BASTION mechanism —
    the registry-derived slice of ``bench.harness.CONFIGS``."""
    return {
        name: defense_for_mechanism(name)
        for name in _ORDER
        if _REGISTRY[name].defense_kwargs is not None
    }


def mechanism_for(defense):
    """The :class:`ProtectionMechanism` implementing a DefenseConfig."""
    if defense.policy is not None:
        return spec_for("bastion").mechanism_class()(defense)
    baseline = getattr(defense, "baseline", None)
    if baseline is not None:
        spec = _REGISTRY.get(baseline)
        if spec is None:
            raise ValueError("unknown baseline mechanism %r" % (baseline,))
        return spec.mechanism_class()(defense)
    from repro.mechanisms.baselines import StaticMechanism

    return StaticMechanism(defense)
