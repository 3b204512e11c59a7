"""Reachability-based debloating (§2.2 "Attack surface reduction").

Removes functions unreachable from the entry point (direct edges plus the
address-taken closure), mirroring Nibbler/RAZOR-style binary debloating.
The report shows the paper's point: sensitive syscalls that *are* used
(``mmap``/``mprotect`` for pools and loading) survive debloating and remain
weaponizable.
"""

from dataclasses import dataclass, field

from repro.ir.callgraph import build_callgraph
from repro.baselines.seccomp_filter import used_syscalls
from repro.syscalls.sensitive import SENSITIVE_SYSCALLS


@dataclass
class DebloatReport:
    """What debloating removed and what necessarily survived."""

    kept_functions: set = field(default_factory=set)
    removed_functions: set = field(default_factory=set)
    removed_syscalls: set = field(default_factory=set)
    surviving_sensitive: set = field(default_factory=set)


def debloat_module(module):
    """Return ``(debloated_module, DebloatReport)``; input is untouched.

    Built once per source module (:meth:`Module.derive`) and shared by
    every caller, so treat both results as read-only; debloat a
    ``module.clone()`` for a private copy.
    """
    return module.derive("debloat", _debloat)


def _debloat(module):
    callgraph = build_callgraph(module)
    reachable = callgraph.reachable_from([module.entry])
    new_module = module.clone()
    report = DebloatReport()
    report.kept_functions = set(reachable)
    for name in list(new_module.functions):
        if name not in reachable:
            report.removed_functions.add(name)
            del new_module.functions[name]

    before = used_syscalls(module)
    after = used_syscalls(new_module)
    report.removed_syscalls = before - after
    report.surviving_sensitive = after & set(SENSITIVE_SYSCALLS)
    return new_module, report
