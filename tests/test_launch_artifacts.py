"""Launch artifacts: built once per module, shared by launches, still sound.

The validated image, the debloated module, the BASTION artifact, the
compiled policies and every mechanism's seccomp filter are memoized on
the module they derive from (``Module.derive``).  These tests pin the
soundness side of that sharing: a changed module is re-validated and
re-derived, a copy starts empty, an attack run cannot leave anything
behind in a shared artifact, and each shared result equals a fresh one.
"""

import dataclasses

import pytest

from repro.attacks.catalog import CATALOG
from repro.attacks.runner import TARGETS, _target_module, run_attack, target_names
from repro.baselines.debloat import debloat_module
from repro.bench.harness import CONFIGS
from repro.errors import IRValidationError
from repro.ir.instructions import Jump
from repro.ir.types import GlobalVar
from repro.kernel.kernel import Kernel
from repro.mechanisms.base import artifact_for
from repro.mechanisms.registry import MECHANISM_NAMES
from repro.monitor.policy import ContextPolicy
from repro.vm.loader import load_module


def _spec(name):
    return next(s for s in CATALOG if s.name == name)


def _fresh(target="mediasrv"):
    """A private module (the runner's shared target modules stay intact)."""
    return TARGETS[target].build()


class TestModuleMemo:
    def test_image_is_shared_per_module(self):
        module = _fresh()
        image = load_module(module)
        assert load_module(module) is image
        assert artifact_for(module) is artifact_for(module)
        assert artifact_for(module).image() is load_module(
            artifact_for(module).module
        )

    def test_clone_does_not_carry_the_memo(self):
        module = _fresh()
        image = load_module(module)
        copy = module.clone()
        assert module._derived is not None
        assert copy._derived is None
        assert load_module(copy) is not image
        assert load_module(copy).module is copy

    def test_replaced_instruction_without_invalidate_is_revalidated(self):
        # the broken_app.py pattern: body[i] = ..., no invalidate()
        module = _fresh()
        load_module(module)
        main = module.functions[module.entry]
        version = main.version
        main.body[0] = Jump("nowhere")
        assert main.version == version
        with pytest.raises(IRValidationError):
            load_module(module)
        mechanism = CONFIGS["seccomp_allowlist"].mechanism()
        with pytest.raises(IRValidationError):
            mechanism.launch(Kernel(), "mediasrv", module)

    def test_appended_instruction_without_invalidate_is_revalidated(self):
        # the tests/ir/test_validate.py pattern: body.append(...)
        module = _fresh()
        load_module(module)
        module.functions[module.entry].body.append(Jump("nowhere"))
        with pytest.raises(IRValidationError):
            load_module(module)

    def test_valid_edit_rederives_everything(self):
        module = _fresh()
        image, artifact = load_module(module), artifact_for(module)
        slim, _report = debloat_module(module)
        module.add_global(GlobalVar("late_global", size=2))
        assert load_module(module) is not image
        assert "late_global" in load_module(module).global_addr
        assert artifact_for(module) is not artifact
        assert debloat_module(module)[0] is not slim

    def test_failed_build_caches_nothing(self):
        module = _fresh()
        main = module.functions[module.entry]
        good = main.body[0]
        main.body[0] = Jump("nowhere")
        with pytest.raises(IRValidationError):
            load_module(module)
        main.body[0] = good
        assert load_module(module).module is module


@pytest.mark.parametrize("target", target_names())
def test_shared_debloat_equals_a_fresh_one(target):
    module = _target_module(target)
    shared, shared_report = debloat_module(module)
    assert debloat_module(module)[0] is shared
    fresh, fresh_report = debloat_module(module.clone())
    assert fresh is not shared
    assert dataclasses.asdict(fresh_report) == dataclasses.asdict(shared_report)
    assert list(fresh.functions) == list(shared.functions)
    for name, func in shared.functions.items():
        assert fresh.functions[name].body == func.body, name
        assert fresh.functions[name].params == func.params, name
    assert list(fresh.globals.values()) == list(shared.globals.values())


def _launch(spec, mechanism, envs):
    """One attack run, keeping its AttackEnv."""

    def stage(env, original=spec.stage):
        envs.append(env)
        return original(env)

    spec = dataclasses.replace(spec, stage=stage)
    if mechanism == "undefended":
        return run_attack(spec, None, mechanism)
    if mechanism == "bastion":
        return run_attack(spec, ContextPolicy.full(), mechanism)
    return run_attack(spec, None, mechanism, defense=CONFIGS[mechanism])


def _verdict(outcome):
    return (
        outcome.succeeded,
        outcome.blocked,
        outcome.blocked_by,
        outcome.stage_cycles,
        outcome.syscall_counts,
    )


def _shared_state(env):
    filters = env.proc.seccomp_filters
    return {
        "image": env.image,
        "module": env.image.module,
        "snapshot": env.image.module._snapshot(),
        "layout": (dict(env.image.func_base), dict(env.image.global_addr)),
        "filters": list(filters),
        "programs": [list(f.program.instructions) for f in filters],
        "allow": [f.allow_nrs() for f in filters],
    }


@pytest.mark.parametrize("mechanism", ("undefended",) + MECHANISM_NAMES)
def test_relaunch_after_a_memory_corrupting_attack_is_identical(mechanism):
    probe = _spec("cve_2013_2028")
    corrupt = _spec("control_jujutsu")  # data-only writes into nginx memory
    assert probe.target == corrupt.target == "nginx"
    envs = []
    first = _launch(probe, mechanism, envs)
    before = _shared_state(envs[0])
    _launch(corrupt, mechanism, envs)
    second = _launch(probe, mechanism, envs)
    assert _verdict(second) == _verdict(first)
    after = _shared_state(envs[2])
    assert after["image"] is before["image"]
    assert after["module"] is before["module"]
    assert after["snapshot"] == before["snapshot"]
    assert after["layout"] == before["layout"]
    assert len(after["filters"]) == len(before["filters"])
    for a, b in zip(after["filters"], before["filters"]):
        assert a is b
    assert after["programs"] == before["programs"]
    assert after["allow"] == before["allow"]


def test_policy_path_and_bastion_mechanism_share_one_compile():
    envs = []
    spec = _spec("aocr_nginx_attack1")  # a filesystem-extension spec
    _launch(spec, "bastion", envs)
    module = _target_module("nginx")
    assert envs[0].monitor.artifact is artifact_for(module, True)
    assert envs[0].image is artifact_for(module, True).image()


def test_binary_only_recovers_from_the_launched_image():
    module = _target_module("nginx")
    mechanism = CONFIGS["binary_only"].mechanism()
    _proc, cpu = mechanism.launch(Kernel(), "nginx", module)
    assert mechanism.image is cpu.image is load_module(module)
    assert mechanism.recovery.image is mechanism.image
