"""BASTION as a :class:`ProtectionMechanism`.

The monitor owns the launch sequence — shadow-global initialization, the
generated seccomp filter, and tracer registration all happen inside
:meth:`BastionMonitor.attach` — so this mechanism compiles the artifact,
constructs the monitor, and delegates.
"""

from repro.mechanisms.base import ProtectionMechanism, artifact_for
from repro.monitor.monitor import BastionMonitor


class BastionMechanism(ProtectionMechanism):
    """Full BASTION: instrumented binary + ptrace monitor + policy."""

    def launch(self, kernel, app, module):
        artifact = artifact_for(module, self.defense.extend_filesystem)
        self.monitor = BastionMonitor(artifact, policy=self.defense.policy)
        return self.monitor.launch(kernel, cpu_options=self.cpu_options())
