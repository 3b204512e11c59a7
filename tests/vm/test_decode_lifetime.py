"""A finished CPU releases its predecoded closures by reference counting.

Every decoded op closes over its CPU, and the CPU holds the ops in its
predecode cache, so while that cache lives the ops sit in a reference
cycle that only the cycle collector can free.  ``CPU.run_slice`` drops
the cache when it returns a terminal status; these tests run with the
collector disabled, so an op that is still alive afterwards proves the
cycle was left intact.
"""

import contextlib
import gc
import weakref

import pytest

from repro.ir.builder import ModuleBuilder
from repro.kernel.kernel import Kernel
from repro.sched import Scheduler
from repro.vm import predecode
from repro.vm.cpu import CPU, CPUOptions
from repro.vm.loader import Image
from tests.conftest import make_wrapper


@contextlib.contextmanager
def _collector_off():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture
def decoded_ops(monkeypatch):
    """Weak references to every op any CPU decodes during the test."""
    refs = []
    original = predecode.decode_function

    def recording(cpu, func):
        ops = original(cpu, func)
        refs.extend(weakref.ref(op) for op in ops)
        return ops

    monkeypatch.setattr(predecode, "decode_function", recording)
    return refs


def _alive(refs):
    return [ref for ref in refs if ref() is not None]


def _exiting_module():
    """main calls a helper, passes a hook point, then exits with 3."""
    mb = ModuleBuilder("lifetime")
    make_wrapper(mb, "exit_group", 1)
    helper = mb.function("helper", params=["x"])
    helper.ret(helper.add(helper.p("x"), 1))
    f = mb.function("main")
    f.call("helper", [1])
    f.hook("mid_run")
    f.call("exit_group", [3])
    f.ret(0)
    return mb.build()


def _workers_module(workers=2):
    """main clones ``workers`` children that burn cycles, then reaps them."""
    mb = ModuleBuilder("lifetime-workers")
    make_wrapper(mb, "clone", 5)
    make_wrapper(mb, "wait4", 4)
    w = mb.function("worker_start", params=["arg"])
    w.burn(20_000)
    w.hook("worker_mid_run")
    w.ret(w.p("arg"))
    f = mb.function("main")
    fn = f.funcaddr("worker_start")
    for i in range(workers):
        f.call("clone", [0, 0, fn, 10 + i, 0])
    wst = f.addr_global("g_wstatus")
    for _ in range(workers):
        f.call("wait4", [-1, wst, 0, 0])
    f.ret(0)
    mb.global_var("g_wstatus", init=0)
    return mb.build()


class TestFinishedCpuReleasesOps:
    def test_op_taken_mid_run_dies_when_run_returns(self):
        module = _exiting_module()
        kernel = Kernel()
        image = Image(module)
        proc = kernel.create_process(module.name, image)
        cpu = CPU(image, proc, kernel, CPUOptions())
        taken = []

        def grab(running):
            for entry in running._decoded.values():
                taken.extend(weakref.ref(op) for op in entry[2])

        cpu.hooks["mid_run"] = grab
        with _collector_off():
            status = cpu.run()
            assert (status.kind, status.code) == ("exit", 3)
            assert taken, "the hook never saw a decoded op"
            assert _alive(taken) == []
            assert cpu._decoded == {}
            # A finished CPU stays finished, and decodes nothing for it.
            assert cpu.run_slice() == status
            assert cpu._decoded == {}

    def test_preempted_cpu_keeps_its_ops(self, decoded_ops):
        """Only a terminal status releases the cache: a slice that ends
        on the quantum resumes on the ops it already decoded."""
        module = _workers_module(workers=1)
        kernel = Kernel()
        image = Image(module)
        proc = kernel.create_process(module.name, image)
        cpu = CPU(image, proc, kernel, CPUOptions(), entry="worker_start",
                  entry_args=(5,))
        with _collector_off():
            assert cpu.run_slice(quantum=1_000) is None
            assert cpu._decoded
            assert len(_alive(decoded_ops)) == len(decoded_ops)
            calls = len(decoded_ops)
            status = cpu.run_slice()
            assert (status.kind, status.code) == ("returned", 5)
            assert len(decoded_ops) == calls  # nothing re-decoded
            assert _alive(decoded_ops) == []

    def test_run_child_releases_the_child_cpus_ops(self, decoded_ops):
        module = _workers_module(workers=1)
        kernel = Kernel()
        image = Image(module)
        proc = kernel.create_process(module.name, image)
        with _collector_off():
            cpu = CPU(image, proc, kernel, CPUOptions())
            cpu.run()  # unscheduled: clone() only creates the child
            (child,) = proc.children
            status = kernel.run_child(child, image, "worker_start", [7])
            assert (status.kind, status.code) == ("returned", 7)
            assert child.cpu is not cpu and child.cpu._decoded == {}
            assert decoded_ops and _alive(decoded_ops) == []

    def test_every_scheduled_task_releases_its_ops(self, decoded_ops):
        module = _workers_module(workers=2)
        kernel = Kernel()
        image = Image(module)
        proc = kernel.create_process(module.name, image)
        cpu = CPU(image, proc, kernel, CPUOptions())
        sched = Scheduler(kernel, quantum=500)
        sched.add(proc, cpu)
        with _collector_off():
            statuses = sched.run()
            assert len(statuses) == 3
            assert all(s.kind == "returned" for s in statuses.values())
            assert sched.stats.preemptions > 0
            cpus = [task.cpu for task in sched.tasks.values()]
            assert len(cpus) == 3
            assert all(c._decoded == {} for c in cpus)
            assert decoded_ops and _alive(decoded_ops) == []


class TestAttackRunGarbage:
    def test_bastion_corpus_run_leaves_little_cyclic_garbage(self):
        """One launch-dominated attack run must not leave its predecoded
        closures to the collector (about 4,700 objects when it did)."""
        from repro.attacks.runner import run_attack
        from repro.fuzz.engine import load_corpus
        from repro.fuzz.genome import genome_from_dict, spec_for_genome
        from repro.monitor.policy import ContextPolicy

        (entry,) = [
            e for e in load_corpus()["divergences"]
            if e["name"] == "fz_007_nginx_return_address"
        ]
        spec = spec_for_genome(genome_from_dict(entry["genome"]))
        run_attack(spec, ContextPolicy.full(), "bastion")  # warm the memos
        gc.collect()
        before = len(gc.garbage)
        with _collector_off():
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                outcome = run_attack(spec, ContextPolicy.full(), "bastion")
                assert outcome.blocked
                del outcome
                gc.collect()
                garbage = len(gc.garbage) - before
            finally:
                gc.set_debug(0)
                del gc.garbage[before:]
        assert garbage < 1_000
