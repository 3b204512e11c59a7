"""The five baseline defenses as :class:`ProtectionMechanism` subclasses.

Each wraps an analysis from :mod:`repro.baselines` and installs it through
the kernel's public surfaces — no harness branches, no kernel special
cases.  The hardware/compiler baselines (CET, LLVM-CFI, DFI) are purely
``CPUOptions`` flags carried by the DefenseConfig, so they share
:class:`StaticMechanism`.
"""

from repro.baselines.debloat import debloat_module
from repro.baselines.seccomp_filter import build_allowlist_filter
from repro.baselines.temporal import build_serving_phase_filter
from repro.mechanisms.base import ProtectionMechanism

#: app entry functions reachable only after the serving phase begins.
#: vsftpd's accept loop lives in ``main`` itself, so its "serving" phase
#: degenerates to the whole program (the temporal baseline adds nothing
#: over the allowlist there — a faithful limitation of the technique).
SERVING_ROOTS = {
    "nginx": ("ngx_master_cycle", "ngx_worker_cycle"),
    "sqlite": ("sqlite_server_loop",),
    "vsftpd": ("main",),
}


class StaticMechanism(ProtectionMechanism):
    """CPU-flag-only defenses: vanilla, CET, LLVM-CFI, DFI."""


def allowlist_filter(module):
    """The module's allowlist filter, built once per module."""
    return module.derive("allowlist-filter", build_allowlist_filter)


class SeccompAllowlistMechanism(ProtectionMechanism):
    """Static syscall allowlist: KILL anything the program never calls."""

    def install(self, kernel, proc, app, module):
        kernel.install_seccomp(proc, allowlist_filter(module))


class TemporalMechanism(ProtectionMechanism):
    """Two-phase specialization: allowlist at launch, a stricter filter
    once the server enters its accept loop (TSP/temporal debloating).

    The phase switch is a dispatch-pipeline hook: at the first
    ``accept``/``accept4`` the serving-phase filter is appended to the
    calling process *before* the seccomp stage evaluates that syscall, so
    the strictest-action-wins composition applies from the switch point on.
    """

    def __init__(self, defense):
        super().__init__(defense)
        self.switched = False
        self.serving_filter = None
        self.init_only = frozenset()

    def install(self, kernel, proc, app, module):
        kernel.install_seccomp(proc, allowlist_filter(module))
        roots = SERVING_ROOTS.get(app)
        if roots is None:
            return
        serving, init_only, _serving_set = module.derive(
            ("temporal-serving", roots),
            lambda m: build_serving_phase_filter(m, roots),
        )
        self.serving_filter = serving
        self.init_only = frozenset(init_only)

        def phase_switch(ctx):
            if not self.switched and ctx.name in ("accept", "accept4"):
                self.switched = True
                kernel.install_seccomp(ctx.proc, serving)

        kernel.pipeline.insert("count", phase_switch)


class DebloatMechanism(ProtectionMechanism):
    """Static debloating: unreachable functions removed from the binary."""

    def __init__(self, defense):
        super().__init__(defense)
        self.report = None

    def target_module(self, app, module):
        debloated, self.report = debloat_module(module)
        return debloated
