"""The predecoded fast interpreter loop vs the classic reference loop.

``CPUOptions(predecode=...)`` is a wall-clock-only switch by contract:
both loops must produce identical cycle ledgers, stats, traces, and —
just as load-bearing — identical faults with identical messages.  These
tests run the same programs both ways and diff everything observable.
"""

from repro.ir.builder import ModuleBuilder
from repro.ir.instructions import Imm, Ret
from repro.vm.cpu import CPUOptions
from tests.conftest import run_main, run_module


def _both(module_fn, **options_kwargs):
    """Run a module under both loops; returns the two (status, proc)."""
    out = []
    for predecode in (True, False):
        module = module_fn()
        options = CPUOptions(predecode=predecode, **options_kwargs)
        status, proc, _cpu = run_module(module, options=options)
        out.append((status, proc))
    return out


def _observables(status, proc):
    return {
        "status": (status.kind, status.code),
        "cycles": proc.ledger.cycles,
        "by_category": dict(proc.ledger.by_category),
        "trace": list(proc.trace_log),
        "syscalls": dict(proc.syscall_counts),
    }


def _recursion_module():
    mb = ModuleBuilder("m")
    fact = mb.function("fact", params=["n"])
    is_zero = fact.eq(fact.p("n"), 0)
    fact.branch(is_zero, "base", "rec")
    fact.label("base")
    one = fact.const(1)
    fact.ret(one)
    fact.label("rec")
    n1 = fact.sub(fact.p("n"), 1)
    sub = fact.call("fact", [n1])
    r = fact.mul(fact.p("n"), sub)
    fact.ret(r)
    f = mb.function("main")
    r = f.call("fact", [8])
    f.intrinsic("trace", [r])
    f.ret(r)
    return mb.build()


class TestLoopParity:
    def test_recursion_identical_both_loops(self):
        (fast_status, fast_proc), (ref_status, ref_proc) = _both(
            _recursion_module
        )
        assert fast_status.code == 40320
        assert _observables(fast_status, fast_proc) == _observables(
            ref_status, ref_proc
        )

    def test_arithmetic_and_division_edge_cases(self):
        def module_fn():
            mb = ModuleBuilder("m")
            f = mb.function("main")
            for op, a, b in [
                ("//", -7, 2),
                ("%", -7, 2),
                ("//", 5, 0),
                ("%", 5, 0),
                ("<<", 1, 200),  # shift counts wrap at 64
                ("+", (1 << 62), (1 << 62)),  # 64-bit wraparound
            ]:
                r = f.binop(op, a, b)
                f.intrinsic("trace", [r])
            f.ret(0)
            return mb.build()

        (s1, p1), (s2, p2) = _both(module_fn)
        assert _observables(s1, p1) == _observables(s2, p2)

    def test_cet_shadow_stack_parity(self):
        (s1, p1), (s2, p2) = _both(_recursion_module, cet=True)
        assert _observables(s1, p1) == _observables(s2, p2)
        assert p1.ledger.by_category.get("cet", 0) > 0

    def test_predecode_default_on(self):
        assert CPUOptions().predecode is True


class TestFaultParity:
    """Faults surface as ``ExitStatus('fault', 139, 'Type: message')`` —
    both loops must yield the identical status *and* identical cycles
    spent up to the fault (error timing is part of the contract)."""

    def _fault_both(self, body_fn, **options_kwargs):
        outcomes = []
        for predecode in (True, False):
            status, proc, _cpu = run_main(
                body_fn,
                options=CPUOptions(predecode=predecode, **options_kwargs),
            )
            outcomes.append((status.kind, status.code, status.reason, proc.ledger.cycles))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == "fault"
        return outcomes[0][2]

    def test_unaligned_store_same_fault(self):
        def body(f):
            f.store(3, 42)  # address 3: unaligned
            f.ret(0)

        reason = self._fault_both(body)
        assert "SegmentationFault" in reason and "unaligned" in reason

    def test_negative_load_same_fault(self):
        def body(f):
            addr = f.sub(0, 8)
            r = f.load(addr)
            f.ret(r)

        reason = self._fault_both(body)
        assert "SegmentationFault" in reason and "negative" in reason

    def test_shadow_stack_fault_parity(self):
        """A return-address overwrite trips CET identically in both loops."""
        from repro.vm.memory import WORD

        def module_fn():
            mb = ModuleBuilder("m")
            leaf = mb.function("leaf")
            leaf.hook("smash")
            leaf.ret(0)
            f = mb.function("main")
            f.call("leaf", [])
            f.ret(0)
            return mb.build()

        def smash(cpu):
            # the saved return address lives at fp + WORD
            cpu.proc.memory.write(cpu.fp + WORD, 0x4140)

        outcomes = []
        for predecode in (True, False):
            status, proc, _cpu = run_module(
                module_fn(),
                options=CPUOptions(predecode=predecode, cet=True),
                hooks={"smash": smash},
            )
            outcomes.append(
                (status.kind, status.code, status.reason, proc.ledger.cycles)
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == "fault"
        assert "ShadowStackFault" in outcomes[0][2]


class TestCacheInvalidation:
    def test_function_version_bump_invalidates_decoded_body(self):
        """Structural edits after a first run must not execute stale
        closures: Function.version keys the per-CPU decode cache."""
        from repro.kernel.kernel import Kernel
        from repro.vm.cpu import CPU
        from repro.vm.loader import Image

        mb = ModuleBuilder("m")
        f = mb.function("main")
        f.intrinsic("trace", [1])
        f.ret(7)
        module = mb.build()

        kernel = Kernel()
        image = Image(module)
        proc = kernel.create_process("m", image)
        cpu = CPU(image, proc, kernel, CPUOptions())
        status = cpu.run()
        assert status.code == 7
        func = module.functions["main"]
        version_before = func.version
        body = func.body
        func.body[-1] = Ret(Imm(9))  # in place: the body list is the same
        func.invalidate()
        assert func.body is body
        assert func.version > version_before
        fresh_proc = kernel.create_process("m", image)
        fresh = CPU(image, fresh_proc, kernel, CPUOptions())
        assert fresh.run().code == 9

    def test_reentered_function_runs_its_edited_body(self):
        """A CPU that already decoded a function and re-enters it after an
        in-place edit plus invalidate() executes the new body."""
        from repro.kernel.kernel import Kernel
        from repro.vm.cpu import CPU
        from repro.vm.loader import Image

        mb = ModuleBuilder("m")
        g = mb.function("seven")
        g.intrinsic("trace", [1])
        g.ret(7)
        f = mb.function("main")
        first = f.call("seven")
        f.intrinsic("trace", [first])
        f.hook("edit")
        second = f.call("seven")
        f.intrinsic("trace", [second])
        f.ret(second)
        module = mb.build()

        def edit(cpu):
            seven = module.functions["seven"]
            assert "seven" in cpu._decoded  # decoded by the first call
            seven.body[-1] = Ret(Imm(9))
            seven.invalidate()

        kernel = Kernel()
        image = Image(module)
        proc = kernel.create_process("m", image)
        cpu = CPU(image, proc, kernel, CPUOptions())
        cpu.hooks["edit"] = edit
        status = cpu.run()
        assert (status.kind, status.code) == ("returned", 9)
        assert proc.trace_log == [[1], [7], [1], [9]]
