"""The traced run: spans around the program's layer boundaries.

All spans are recorded from this file.  :func:`install` wraps the
program's layer entry points (a class method or module function each)
before any ``Kernel`` or ``CPU`` exists, so every call made during the
sample goes through a wrapper.  ``DispatchPipeline.run`` is wrapped
rather than ``Kernel.syscall``: ``Kernel.dispatch`` is an alias bound to
the original function, and predecoded closures capture it at decode
time, but both still look up ``pipeline.run`` on every call.

A span is ``[name, start_ns, end_ns, parent_index, op_id]``.  Spans stay
in memory until the sample ends.  Timestamps come from
``time.perf_counter_ns`` (~70 ns a call, against ~300 ns for a CPU-time
clock); the sample is one thread doing no I/O, so wall time and CPU time
differ only while the OS runs something else.

A layer's *self* time is its span's duration minus the union of the
intervals its child spans cover.  A layer's *inclusive* time sums only
spans with no ancestor of the same layer, so recursion (a ``clone``
dispatch running a child CPU that dispatches again) is not counted twice.
"""

import functools
import time
from collections import defaultdict

#: (module, class or None, attribute, layer) — the wrapped entry points
LAYER_ENTRY_POINTS = (
    ("repro.vm.cpu", "CPU", "run_slice", "vm"),
    ("repro.vm.predecode", None, "decode_function", "vm.decode"),
    ("repro.vm.loader", "Image", "__init__", "loader"),
    ("repro.compiler.pipeline", "BastionCompiler", "compile", "compiler"),
    ("repro.mechanisms.sfip", None, "sfip_policy_for", "policy"),
    ("repro.mechanisms.binary", None, "build_recovered_filter", "policy"),
    ("repro.mechanisms.baselines", None, "debloat_module", "baselines.debloat"),
    ("repro.mechanisms.base", "ProtectionMechanism", "launch", "mechanisms.launch"),
    ("repro.mechanisms.bastion", "BastionMechanism", "launch", "mechanisms.launch"),
    ("repro.monitor.monitor", "BastionMonitor", "launch", "mechanisms.launch"),
    ("repro.kernel.kernel", "Kernel", "install_seccomp", "seccomp.install"),
    ("repro.kernel.dispatch", "DispatchPipeline", "run", "dispatch"),
    ("repro.monitor.monitor", "BastionMonitor", "on_syscall_stop", "monitor"),
    ("repro.runtime.bastion_rt", "BastionRuntime", "ctx_write_mem", "runtime"),
    ("repro.runtime.bastion_rt", "BastionRuntime", "ctx_bind_mem", "runtime"),
    ("repro.runtime.bastion_rt", "BastionRuntime", "ctx_bind_const", "runtime"),
    ("repro.sched.scheduler", "Scheduler", "run", "sched"),
    ("repro.telemetry.bus", "TelemetryBus", "emit", "telemetry"),
)

#: load-generator callbacks, wrapped on every Workload subclass defining them
WORKLOAD_METHODS = ("next_connection", "_on_write", "_on_control_write")

OP = "op"
STAGE = "attacks.stage"
WORKLOAD = "workload"

#: per-layer metrics in report order: (name, unit)
PER_LAYER = (
    ("vm.self_cpu_s", "s"),
    ("vm.steps", "count"),
    ("vm.ns_per_step", "ns"),
    ("vm.decode_calls", "count"),
    ("vm.decode_cpu_s", "s"),
    ("loader.images", "count"),
    ("loader.cpu_s", "s"),
    ("compiler.compiles", "count"),
    ("compiler.cpu_s", "s"),
    ("policy.builds", "count"),
    ("policy.cpu_s", "s"),
    ("baselines.debloats", "count"),
    ("baselines.debloat_cpu_s", "s"),
    ("mechanisms.launches", "count"),
    ("mechanisms.launch_self_cpu_s", "s"),
    ("seccomp.installs", "count"),
    ("seccomp.install_cpu_s", "s"),
    ("seccomp.action_cache_hit_ratio", "ratio"),
    ("dispatch.syscalls", "count"),
    ("dispatch.self_cpu_s", "s"),
    ("dispatch.us_per_syscall", "us"),
    ("dispatch.sim_cycles_per_op.seccomp", "cycles"),
    ("dispatch.sim_cycles_per_op.trace_stop", "cycles"),
    ("dispatch.sim_cycles_per_op.execute", "cycles"),
    ("monitor.stops", "count"),
    ("monitor.cpu_s", "s"),
    ("monitor.us_per_stop", "us"),
    ("monitor.sim_cycles_per_op.verify.unwind", "cycles"),
    ("monitor.sim_cycles_per_op.verify.arg_integrity", "cycles"),
    ("monitor.sim_cycles_per_op.verify.call_type", "cycles"),
    ("monitor.sim_cycles_per_op.verify.control_flow", "cycles"),
    ("monitor.sim_cycles_per_op.ptrace", "cycles"),
    ("monitor.sim_cycles_per_op.trap", "cycles"),
    ("monitor.avg_unwind_depth", "frames"),
    ("monitor.verdict_cache_hit_ratio", "ratio"),
    ("runtime.calls", "count"),
    ("runtime.cpu_s", "s"),
    ("sched.slices", "count"),
    ("sched.preemptions", "count"),
    ("sched.self_cpu_s", "s"),
    ("sched.sim_switch_cycles_per_op", "cycles"),
    ("telemetry.emits", "count"),
    ("telemetry.cpu_s", "s"),
    ("telemetry.dropped", "count"),
    ("attacks.runs", "count"),
    ("attacks.stage_cpu_s", "s"),
    ("workload.cpu_s", "s"),
    ("phase.launch_s", "s"),
    ("phase.boot_s", "s"),
    ("phase.steady_s", "s"),
    ("phase.teardown_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
)

#: stage-cycle attributions (telemetry bus) reported per op
DISPATCH_STAGES = ("seccomp", "trace_stop", "execute")
VERIFY_STAGES = (
    "verify.unwind",
    "verify.arg_integrity",
    "verify.call_type",
    "verify.control_flow",
)
#: ledger categories charged by the ptrace round trip
MONITOR_LEDGER = ("ptrace", "trap")


class Tracer:
    """In-memory span recorder plus per-kernel model counters."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []
        self.op = 0
        self.steps = 0
        self.model = defaultdict(float)
        self._stack = []
        self._kernels = []
        self._patches = []

    # -- spans ---------------------------------------------------------

    def begin(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index):
        self._stack.pop()
        self.spans[index][2] = self.clock()

    def reset(self):
        """Discard everything recorded so far (e.g. an untimed warm-up)."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        self.spans.clear()
        self.steps = 0
        self.model.clear()
        self._kernels.clear()

    def begin_op(self):
        """Start a new op: later spans share its id until the next one."""
        self.op += 1
        return self.begin(OP)

    def wrap(self, owner, attr, layer):
        """Replace ``owner.attr`` (a plain function) by a span-recording one."""
        original = vars(owner)[attr]
        begin, end = self.begin, self.end

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = begin(layer)
            try:
                return original(*args, **kwargs)
            finally:
                end(index)

        self._patch(owner, attr, traced, original)

    def _patch(self, owner, attr, replacement, original):
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        """Restore every wrapped attribute (last patched first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- model counters from the kernels a sample created ---------------

    def harvest_kernels(self):
        """Fold every kernel created since the last harvest into ``model``
        and drop the references, so an op's kernel can be freed."""
        model = self.model
        for kernel in self._kernels:
            bus = kernel.telemetry
            for key, value in bus.counters.items():
                model[key] += value
            model["telemetry.dropped"] += bus.dropped
            for proc in kernel.processes.values():
                model["seccomp.cache_hits"] += proc.seccomp_cache_hits
                model["seccomp.cache_misses"] += proc.seccomp_cache_misses
                for category, cycles in proc.ledger.by_category.items():
                    model["ledger." + category] += cycles
        self._kernels.clear()


def install(tracer, extra_modules=()):
    """Wrap every layer entry point; call before any Kernel or CPU exists.

    ``extra_modules`` are imported first so that Workload subclasses they
    define get their load-generator callbacks wrapped too.
    """
    import importlib

    for name in extra_modules:
        importlib.import_module(name)
    for module_name, class_name, attr, layer in LAYER_ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        tracer.wrap(owner, attr, layer)
    _wrap_run_slice_steps(tracer)
    _capture_kernels(tracer)
    from repro.apps.workloads import Workload

    for cls in _subclasses(Workload):
        for attr in WORKLOAD_METHODS:
            if attr in vars(cls):
                tracer.wrap(cls, attr, WORKLOAD)
    return tracer


def _subclasses(cls):
    seen = []
    todo = list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        if sub not in seen:
            seen.append(sub)
            todo.extend(sub.__subclasses__())
    return seen


def _wrap_run_slice_steps(tracer):
    """Count interpreter steps across the (already span-wrapped) run_slice."""
    from repro.vm.cpu import CPU

    traced = vars(CPU)["run_slice"]

    @functools.wraps(traced)
    def counted(cpu, *args, **kwargs):
        before = cpu.stats.steps
        try:
            return traced(cpu, *args, **kwargs)
        finally:
            tracer.steps += cpu.stats.steps - before

    tracer._patch(CPU, "run_slice", counted, traced)


def _capture_kernels(tracer):
    from repro.kernel.kernel import Kernel

    original = vars(Kernel)["__init__"]

    @functools.wraps(original)
    def init(kernel, *args, **kwargs):
        original(kernel, *args, **kwargs)
        tracer._kernels.append(kernel)

    tracer._patch(Kernel, "__init__", init, original)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def covered_length(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        kids = children.get(index)
        covered = 0
        if kids:
            covered = covered_length(
                (max(spans[k][1], start), min(spans[k][2], end)) for k in kids
            )
        out.append(end - start - covered)
    return out


def layer_totals(spans):
    """``(count, self_ns, inclusive_ns)`` dicts keyed by layer.

    ``count`` skips a span whose direct parent is the same layer (one
    launch that delegates to another launch is one launch).
    """
    selfs = self_times(spans)
    count = defaultdict(int)
    self_ns = defaultdict(int)
    incl_ns = defaultdict(int)
    for index, (name, start, end, parent, _) in enumerate(spans):
        self_ns[name] += selfs[index]
        if parent < 0 or spans[parent][0] != name:
            count[name] += 1
        outermost = True
        while parent >= 0:
            if spans[parent][0] == name:
                outermost = False
                break
            parent = spans[parent][3]
        if outermost:
            incl_ns[name] += end - start
    return count, self_ns, incl_ns, selfs


def phase_totals(spans):
    """Launch / boot / steady / teardown ns summed over every op span.

    Within one op: *launch* runs from the op's start to the end of the
    last ``mechanisms.launch`` or ``loader`` span that ends before the
    program first runs; *boot* runs on to the program's first accepted
    connection (its first ``workload`` span), or to its first instruction
    when no connection is accepted; *steady* runs to the end of its last
    ``vm``/``sched`` span; *teardown* is the rest of the op.
    """
    ops = {}
    for name, start, end, _, op in spans:
        if name == OP:
            ops[op] = {"start": start, "end": end, "launch": [], "vm": [],
                       "workload": None, "last": None}
    for name, start, end, _, op in spans:
        info = ops.get(op)
        if info is None or name == OP:
            continue
        if name in ("mechanisms.launch", "loader"):
            info["launch"].append((start, end))
        elif name in ("vm", "sched"):
            info["vm"].append(start)
            if info["last"] is None or end > info["last"]:
                info["last"] = end
        elif name == WORKLOAD and info["workload"] is None:
            info["workload"] = start
    totals = dict.fromkeys(("launch", "boot", "steady", "teardown"), 0)
    for info in ops.values():
        first_run = min(info["vm"]) if info["vm"] else info["end"]
        launch_end = max(
            [end for start, end in info["launch"] if end <= first_run],
            default=info["start"],
        )
        boot_end = info["workload"] if info["workload"] is not None else first_run
        boot_end = max(boot_end, launch_end)
        steady_end = max(info["last"] or boot_end, boot_end)
        steady_end = min(steady_end, info["end"])
        totals["launch"] += launch_end - info["start"]
        totals["boot"] += boot_end - launch_end
        totals["steady"] += max(steady_end - boot_end, 0)
        totals["teardown"] += max(info["end"] - steady_end, 0)
    return totals


def layer_metrics(tracer, ops):
    """Every :data:`PER_LAYER` metric except ``trace.overhead_pct``, which
    needs the untraced sample; ``ops`` is the sample's completed ops."""
    count, self_ns, incl_ns, selfs = layer_totals(tracer.spans)
    model = tracer.model
    ns = 1e-9

    def ratio(num, den):
        return num / den if den else 0.0

    def per_op(value):
        return ratio(value, ops)

    op_total = sum(s[2] - s[1] for s in tracer.spans if s[0] == OP)
    op_self = sum(
        selfs[i] for i, s in enumerate(tracer.spans) if s[0] == OP
    )
    phases = phase_totals(tracer.spans)
    values = {
        "vm.self_cpu_s": self_ns["vm"] * ns,
        "vm.steps": tracer.steps,
        "vm.ns_per_step": ratio(self_ns["vm"], tracer.steps),
        "vm.decode_calls": count["vm.decode"],
        "vm.decode_cpu_s": incl_ns["vm.decode"] * ns,
        "loader.images": count["loader"],
        "loader.cpu_s": incl_ns["loader"] * ns,
        "compiler.compiles": count["compiler"],
        "compiler.cpu_s": incl_ns["compiler"] * ns,
        "policy.builds": count["policy"],
        "policy.cpu_s": incl_ns["policy"] * ns,
        "baselines.debloats": count["baselines.debloat"],
        "baselines.debloat_cpu_s": incl_ns["baselines.debloat"] * ns,
        "mechanisms.launches": count["mechanisms.launch"],
        "mechanisms.launch_self_cpu_s": self_ns["mechanisms.launch"] * ns,
        "seccomp.installs": count["seccomp.install"],
        "seccomp.install_cpu_s": incl_ns["seccomp.install"] * ns,
        "seccomp.action_cache_hit_ratio": ratio(
            model["seccomp.cache_hits"],
            model["seccomp.cache_hits"] + model["seccomp.cache_misses"],
        ),
        "dispatch.syscalls": count["dispatch"],
        "dispatch.self_cpu_s": self_ns["dispatch"] * ns,
        "dispatch.us_per_syscall": ratio(self_ns["dispatch"] / 1e3, count["dispatch"]),
        "monitor.stops": count["monitor"],
        "monitor.cpu_s": incl_ns["monitor"] * ns,
        "monitor.us_per_stop": ratio(incl_ns["monitor"] / 1e3, count["monitor"]),
        "monitor.avg_unwind_depth": ratio(
            model["monitor.unwind_depth_total"], model["monitor.unwind_samples"]
        ),
        "monitor.verdict_cache_hit_ratio": ratio(
            model["monitor.cache_hits"],
            model["monitor.cache_hits"] + model["monitor.cache_misses"],
        ),
        "runtime.calls": count["runtime"],
        "runtime.cpu_s": incl_ns["runtime"] * ns,
        "sched.slices": model["sched.slices"],
        "sched.preemptions": model["sched.preemptions"],
        "sched.self_cpu_s": self_ns["sched"] * ns,
        "sched.sim_switch_cycles_per_op": per_op(model["sched.switch_cycles"]),
        "telemetry.emits": count["telemetry"],
        "telemetry.cpu_s": incl_ns["telemetry"] * ns,
        "telemetry.dropped": model["telemetry.dropped"],
        "attacks.runs": count[STAGE],
        "attacks.stage_cpu_s": incl_ns[STAGE] * ns,
        "workload.cpu_s": incl_ns[WORKLOAD] * ns,
        "phase.launch_s": phases["launch"] * ns,
        "phase.boot_s": phases["boot"] * ns,
        "phase.steady_s": phases["steady"] * ns,
        "phase.teardown_s": phases["teardown"] * ns,
        "trace.unattributed_pct": 100.0 * ratio(op_self, op_total),
    }
    for stage in DISPATCH_STAGES:
        values["dispatch.sim_cycles_per_op." + stage] = per_op(
            model["stage.cycles." + stage]
        )
    for stage in VERIFY_STAGES:
        values["monitor.sim_cycles_per_op." + stage] = per_op(
            model["stage.cycles." + stage]
        )
    for category in MONITOR_LEDGER:
        values["monitor.sim_cycles_per_op." + category] = per_op(
            model["ledger." + category]
        )
    return values
