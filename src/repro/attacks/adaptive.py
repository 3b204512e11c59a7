"""The §11.1 study: BASTION under *arbitrary* memory read/write.

The paper concedes that, in theory, an adversary with unconstrained
read/write can circumvent all three contexts — but argues it is hard in
practice because (a) most constraints are static and live in the monitor's
address space, out of reach, and (b) the dynamic state (shadow copies,
binding records) would have to be forged consistently, which requires
knowing the shadow region's location and hash layout.

This module makes that argument quantitative with three adversaries, all
mounted on the Control Jujutsu scenario against mini-NGINX:

- :func:`oracle_forger` — knows the shadow region base and hash function
  (the paper's "very challenging" best case): forges shadow copies for its
  counterfeit exec context and succeeds, at a measured cost in extra
  writes;
- :func:`blind_forger` — same attack but with a wrong guess for the shadow
  base (sparse-address-space hiding): blocked;
- :func:`constant_violator` — tries to defeat a *static* constraint (a
  compile-time-constant argument): impossible by construction, because the
  expected value lives in the monitor's metadata, which no write into the
  application's address space can reach.
"""

from dataclasses import dataclass

from repro.attacks.catalog import attack_by_name
from repro.attacks.primitives import AttackEnv
from repro.attacks.runner import _target_module, attack_target
from repro.kernel.kernel import Kernel
from repro.mechanisms.base import artifact_for
from repro.monitor.monitor import BastionMonitor
from repro.monitor.policy import ContextPolicy
from repro.runtime.shadow_table import COPIES_LAYOUT, ShadowTable, ShadowTableLayout
from repro.vm.cpu import CPUOptions
from repro.vm.memory import WORD


@dataclass
class AdaptiveOutcome:
    """Result of one adaptive-attacker run."""

    name: str
    succeeded: bool
    blocked_by: str = None
    attacker_writes: int = 0
    detail: str = ""


class _CountingMemory:
    """Counts the attacker's write primitive invocations."""

    def __init__(self, env):
        self.env = env
        self.writes = 0

    def write(self, addr, value):
        self.writes += 1
        self.env.proc.memory.write(addr, value)

    def write_cstr(self, addr, text):
        self.writes += len(text) + 1
        self.env.proc.memory.write_cstr(addr, text)


def _launch_jujutsu(stage):
    """Run Control Jujutsu's trigger with a custom corruption payload."""
    spec = attack_by_name("control_jujutsu")
    kernel = Kernel()
    attack_target("nginx").prepare_env(kernel)
    artifact = artifact_for(_target_module("nginx"))
    monitor = BastionMonitor(artifact, policy=ContextPolicy.full())
    proc, cpu = monitor.launch(kernel, cpu_options=CPUOptions(cet=False))
    env = AttackEnv(kernel=kernel, proc=proc, cpu=cpu, image=cpu.image, monitor=monitor)
    counter = _CountingMemory(env)
    env.on_hook("ngx_output_chain_icall", lambda e: stage(e, counter))
    attack_target("nginx").attach_workload(kernel, proc)
    cpu.run()
    return env, monitor, counter


def _forge_payload(env, counter, shadow_base):
    """Counterfeit exec context + forged shadow copies at ``shadow_base``."""
    sh = env._scratch_next
    counter.write_cstr(sh, "/bin/sh")
    env._scratch_next += 16 * WORD
    argv = env._scratch_next
    counter.write(argv, sh)
    counter.write(argv + WORD, 0)
    env._scratch_next += 4 * WORD
    ctx = env._scratch_next
    counter.write(ctx, sh)
    counter.write(ctx + WORD, argv)
    counter.write(ctx + 2 * WORD, 0)
    env._scratch_next += 5 * WORD

    # forge shadow copies so the monitor's origin-lvalue checks pass:
    # the attacker must reimplement the table's probing at shadow_base
    layout = ShadowTableLayout(
        shadow_base, COPIES_LAYOUT.capacity, COPIES_LAYOUT.entry_words
    )
    forged = ShadowTable(env.proc.memory, layout)
    for slot_addr in (ctx, ctx + WORD, ctx + 2 * WORD, argv, argv + WORD):
        entry = forged.put(slot_addr, (env.read(slot_addr),))
        counter.writes += 2  # key + value words
    for i in range(len("/bin/sh") + 1):
        forged.put(sh + i * WORD, (env.read(sh + i * WORD),))
        counter.writes += 2

    # the hijack itself
    counter.write(env.current_local_addr("flt"), env.func_addr("ngx_execute_proc"))
    counter.write(env.current_local_addr("in_"), ctx)


def oracle_forger():
    """§11.1's theoretical bypass: full layout knowledge."""
    def stage(env, counter):
        _forge_payload(env, counter, COPIES_LAYOUT.base)

    env, monitor, counter = _launch_jujutsu(stage)
    return AdaptiveOutcome(
        name="oracle_forger",
        succeeded=env.executed("/bin/sh"),
        blocked_by=monitor.violations[0].context if monitor.violations else None,
        attacker_writes=counter.writes,
        detail="attacker knows the shadow region base and hash layout",
    )


def blind_forger(guess_offset=1 << 30):
    """Same payload, but the shadow-base guess is wrong (region hiding)."""
    def stage(env, counter):
        _forge_payload(env, counter, COPIES_LAYOUT.base + guess_offset)

    env, monitor, counter = _launch_jujutsu(stage)
    return AdaptiveOutcome(
        name="blind_forger",
        succeeded=env.executed("/bin/sh"),
        blocked_by=monitor.violations[0].context if monitor.violations else None,
        attacker_writes=counter.writes,
        detail="shadow base guessed %#x off" % guess_offset,
    )


def constant_violator():
    """Attack a compile-time-constant argument (mprotect guard prot).

    ``ngx_guard_pool`` calls ``mprotect(addr, 4096, 1)`` — the length and
    prot are constants recorded in the monitor's metadata.  The attacker
    corrupts the wrapper-bound registers by rewriting the frame slots the
    call will read, and may scribble over the whole shadow region too: the
    expected values are not *in* the application's address space, so no
    number of writes helps.
    """
    kernel = Kernel()
    attack_target("nginx").prepare_env(kernel)
    artifact = artifact_for(_target_module("nginx"))
    monitor = BastionMonitor(artifact, policy=ContextPolicy.full())
    proc, cpu = monitor.launch(kernel, cpu_options=CPUOptions(cet=False))
    env = AttackEnv(kernel=kernel, proc=proc, cpu=cpu, image=cpu.image, monitor=monitor)
    counter = _CountingMemory(env)

    # Corrupt the wrapper's prot *parameter slot* right at its syscall
    # instruction — after the legitimate constant was passed, before the
    # monitor's stop.  The register will read 7; the metadata says 1.
    def at_syscall(c):
        counter.write(c.local_addr("a2"), 7)

    cpu.breakpoints[env.func_addr("mprotect")] = at_syscall
    attack_target("nginx").attach_workload(kernel, proc)
    cpu.run()
    return AdaptiveOutcome(
        name="constant_violator",
        succeeded=env.made_memory_executable(),
        blocked_by=monitor.violations[0].context if monitor.violations else None,
        attacker_writes=counter.writes,
        detail="constant argument pinned in monitor metadata",
    )


def adaptive_study():
    """Run all three adversaries; returns ``[AdaptiveOutcome, ...]``."""
    return [oracle_forger(), blind_forger(), constant_violator()]
