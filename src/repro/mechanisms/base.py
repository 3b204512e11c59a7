"""The common protection-mechanism interface.

BASTION and every baseline defense (seccomp allowlists, temporal
specialization, debloating, LLVM-CFI, DFI, CET) reach the application
through exactly one seam: a :class:`ProtectionMechanism` builds the target
module, launches the root process, and installs whatever it enforces —
seccomp filters, a ptrace monitor, dispatch-pipeline hooks — via the
kernel's public surfaces (``kernel.install_seccomp``,
``kernel.pipeline.insert``, ``proc.tracer``).  The bench harness holds no
per-defense branches: ``mechanism_for(defense).launch(kernel, app, module)``
is the whole launch path.
"""

from repro.compiler.pipeline import BastionCompiler
from repro.vm.cpu import CPU
from repro.vm.loader import load_module


def artifact_for(module, extend_filesystem=False):
    """The BASTION artifact for ``module``, compiled once per module and
    filesystem-extension setting (:meth:`Module.derive`)."""
    return module.derive(
        ("bastion", extend_filesystem),
        BastionCompiler(extend_filesystem=extend_filesystem).compile,
    )


class ProtectionMechanism:
    """One defense, expressed against the kernel's public surfaces.

    Subclasses override any of:

    - :meth:`target_module` — swap the module the image loads (debloating,
      BASTION instrumentation);
    - :meth:`install` — attach filters / pipeline hooks / a tracer to the
      launched root process;
    - :meth:`launch` — wholesale replacement when the defense owns the
      launch sequence (BASTION's monitor does).
    """

    def __init__(self, defense):
        self.defense = defense
        #: the BastionMonitor when this mechanism runs one, else None
        self.monitor = None

    def cpu_options(self):
        return self.defense.cpu_options()

    def target_module(self, app, module):
        """The module the process image loads."""
        if self.defense.instrumented:
            return artifact_for(module, self.defense.extend_filesystem).module
        return module

    def install(self, kernel, proc, app, module):
        """Attach this mechanism to a launched root process (default: none)."""

    def launch(self, kernel, app, module):
        """Create the protected root process; returns ``(proc, cpu)``."""
        image = load_module(self.target_module(app, module))
        #: the loaded (shared) image, for mechanisms that analyze the
        #: binary itself
        self.image = image
        proc = kernel.create_process(app, image)
        cpu = CPU(image, proc, kernel, self.cpu_options())
        self.install(kernel, proc, app, module)
        return proc, cpu


def mechanism_for(defense):
    """The :class:`ProtectionMechanism` implementing a DefenseConfig.

    Registry-driven since the repro.policy refactor: every named
    mechanism is a :class:`~repro.mechanisms.registry.MechanismSpec` row
    in :mod:`repro.mechanisms.registry`; this is a thin re-export kept
    for its historical import path.
    """
    # imported here: registry resolves mechanism classes lazily, and
    # bastion.py/baselines.py import this module's base class
    from repro.mechanisms.registry import mechanism_for as _registry_lookup

    return _registry_lookup(defense)
