"""The kernel's composed seccomp action cache equals the reference.

``Kernel.install_seccomp`` builds a process's ALLOW bitmap by
intersecting each attached filter's own ALLOW set (computed once per
filter object).  :func:`repro.kernel.seccomp.compute_action_cache`, which
evaluates the whole stack per syscall number, stays the oracle: for every
registered mechanism on every attack target, every process's cache must
equal it — including temporal's two-filter stack after the ``accept``
phase switch, and stacks that contain an argument-pinning filter (no
cache at all).
"""

import pytest

from repro.attacks.runner import TARGETS, _target_module, target_names
from repro.baselines.seccomp_filter import build_arg_constraint_filter
from repro.bench.harness import CONFIGS
from repro.kernel.kernel import Kernel
from repro.kernel.seccomp import (
    SeccompActionCache,
    build_action_filter,
    compose_action_cache,
    compute_action_cache,
)
from repro.mechanisms.registry import MECHANISM_NAMES
from repro.syscalls.table import SYSCALLS, nr_of

ALL_NRS = [entry.nr for entry in SYSCALLS]


def _mechanism(name):
    """A fresh mechanism; ``bastion`` runs as the paper's full config."""
    return CONFIGS["cet_ct_cf_ai" if name == "bastion" else name].mechanism()


def _reference(proc):
    return compute_action_cache(proc.seccomp_filters, ALL_NRS)


def _benign_run(mechanism_name, target_name):
    """Launch ``target_name`` under the mechanism and run its workload."""
    target = TARGETS[target_name]
    kernel = Kernel()
    target.prepare_env(kernel)
    mechanism = _mechanism(mechanism_name)
    proc, cpu = mechanism.launch(kernel, target_name, _target_module(target_name))
    launched = (
        list(proc.seccomp_filters),
        proc.seccomp_action_cache,
        _reference(proc),
    )
    target.attach_workload(kernel, proc)
    cpu.run()
    return kernel, mechanism, launched


@pytest.mark.parametrize("target_name", target_names())
@pytest.mark.parametrize("mechanism_name", MECHANISM_NAMES)
def test_composed_cache_equals_reference(mechanism_name, target_name):
    kernel, _mechanism, (filters, at_launch, reference) = _benign_run(
        mechanism_name, target_name
    )
    assert at_launch == reference, "at launch"
    for proc in kernel.processes.values():
        assert proc.seccomp_action_cache == _reference(proc), proc.pid
        if not proc.seccomp_filters:
            assert proc.seccomp_action_cache is None


def test_temporal_two_filter_stack_after_phase_switch():
    kernel, mechanism, (filters, _at_launch, _ref) = _benign_run(
        "temporal", "nginx"
    )
    assert mechanism.switched
    switched = [
        p for p in kernel.processes.values()
        if mechanism.serving_filter in p.seccomp_filters
    ]
    assert switched
    for proc in switched:
        assert len(proc.seccomp_filters) == 2
        cache = proc.seccomp_action_cache
        assert isinstance(cache, SeccompActionCache)
        assert cache == _reference(proc)
        # the serving filter only narrows: init-only syscalls drop out
        assert cache.allow_nrs < filters[0].allow_nrs()
        for name in mechanism.init_only:
            assert not cache.allows(nr_of(name)), name


@pytest.mark.parametrize("mechanism_name", MECHANISM_NAMES)
def test_arg_pinning_filter_disables_the_cache(mechanism_name):
    target = TARGETS["nginx"]
    kernel = Kernel()
    target.prepare_env(kernel)
    mechanism = _mechanism(mechanism_name)
    proc, _cpu = mechanism.launch(kernel, "nginx", _target_module("nginx"))
    kernel.install_seccomp(
        proc, build_arg_constraint_filter("mprotect", 3, [1, 3])
    )
    assert proc.seccomp_action_cache is None
    assert _reference(proc) is None


def test_empty_stack_has_no_cache():
    assert compose_action_cache([]) is None
    assert compute_action_cache([], ALL_NRS) is None


def test_allow_set_is_computed_once_per_filter(monkeypatch):
    filt = build_action_filter({nr_of("execve"): 0x80000000}, label="t")
    first = filt.allow_nrs()
    assert nr_of("execve") not in first and nr_of("read") in first

    def boom(data):
        raise AssertionError("ALLOW set re-evaluated")

    monkeypatch.setattr(filt, "evaluate", boom)
    assert filt.allow_nrs() is first
    kernel = Kernel()
    a, b = kernel.create_process("a"), kernel.create_process("b")
    kernel.install_seccomp(a, filt)
    kernel.install_seccomp(b, filt)
    assert a.seccomp_action_cache.allow_nrs is first
