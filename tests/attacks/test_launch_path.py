"""One launch path: every protected root process comes from
``ProtectionMechanism.launch``.

Attack runs, app runs and the adaptive study all launch through a
DefenseConfig's mechanism.  A second hand-built launch drifts: the
attack runner's old ``defense=`` branch dropped the BASTION monitor, so a
BASTION kill read as ``blocked=False``.
"""

import ast
from pathlib import Path

import repro
from repro.attacks.catalog import attack_by_name
from repro.attacks.runner import run_attack
from repro.bench.harness import CONFIGS

SRC = Path(repro.__file__).parent

#: the only modules that may create a process or a CPU: the mechanism
#: seam and BASTION's monitor launch root processes; the scheduler and
#: ``Kernel.run_child`` give clone()d children their own CPU
LAUNCH_SITES = {
    "mechanisms/base.py",
    "monitor/monitor.py",
    "sched/scheduler.py",
    "kernel/kernel.py",
}


def _launch_calls(tree):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("CPU", "create_process"):
            yield name, node.lineno


def test_only_the_launch_seam_creates_processes_and_cpus():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel in LAUNCH_SITES:
            continue
        for name, line in _launch_calls(ast.parse(path.read_text())):
            offenders.append("%s:%d %s(" % (rel, line, name))
    assert offenders == []


def test_defense_launch_keeps_the_monitor():
    """A BASTION DefenseConfig passed as ``defense=`` is attributed to the
    monitor's context, with the monitor's violations."""
    outcome = run_attack(
        attack_by_name("cve_2016_10190"), None, "cache_off",
        defense=CONFIGS["cache_off"],
    )
    assert outcome.blocked and not outcome.succeeded
    assert outcome.blocked_by == "call-type"
    assert outcome.violations
    assert outcome.violations[0].context == "call-type"

