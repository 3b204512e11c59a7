"""Tests for image layout and code-address resolution."""

import pytest

from repro.errors import ExecutionFault, IRValidationError
from repro.ir.builder import ModuleBuilder
from repro.vm.loader import (
    DATA_BASE,
    Image,
    INSTR_STRIDE,
    TEXT_BASE,
    load_module,
)
from repro.vm.memory import Memory, WORD


def _module():
    mb = ModuleBuilder("m")
    mb.global_string("hello", "hi")
    mb.global_var("counter", init=7)

    callee = mb.function("callee", params=["x"])
    callee.ret(callee.p("x"))

    f = mb.function("main")
    v = f.const(1)
    r = f.call("callee", [v])
    fp = f.funcaddr("callee")
    f.icall(fp, [r], sig="fn1")
    f.ret(0)
    return mb.build()


class TestLayout:
    def test_functions_at_text_base(self):
        image = Image(_module())
        assert image.func_base["callee"] == TEXT_BASE
        assert image.func_base["main"] > image.func_base["callee"]
        assert image.func_base["main"] % 0x100 == 0

    def test_globals_in_data_segment(self):
        image = Image(_module())
        hello = image.global_addr["hello"]
        counter = image.global_addr["counter"]
        assert hello == DATA_BASE
        assert counter == hello + 3 * WORD  # "hi" + NUL

    def test_entry_addr(self):
        image = Image(_module())
        assert image.entry_addr == image.func_base["main"]

    def test_validates_module(self):
        mb = ModuleBuilder("bad")
        mb.function("main")  # empty body
        with pytest.raises(IRValidationError):
            Image(mb.build())


class TestResolution:
    def test_resolve_round_trip(self):
        image = Image(_module())
        for name in ("main", "callee"):
            func = image.module.functions[name]
            for idx in range(len(func.body)):
                addr = image.addr_of(name, idx)
                resolved_func, resolved_idx = image.resolve_code(addr)
                assert resolved_func.name == name
                assert resolved_idx == idx

    def test_fetch_outside_text_faults(self):
        image = Image(_module())
        with pytest.raises(ExecutionFault):
            image.resolve_code(DATA_BASE)  # data is not executable
        with pytest.raises(ExecutionFault):
            image.resolve_code(0x10)

    def test_fetch_past_function_end_faults(self):
        image = Image(_module())
        end = image.addr_of("callee", 1) + INSTR_STRIDE
        # callee has 2 instructions; its padding is not executable
        with pytest.raises(ExecutionFault):
            image.resolve_code(end)

    def test_misaligned_fetch_faults(self):
        image = Image(_module())
        with pytest.raises(ExecutionFault):
            image.resolve_code(image.entry_addr + 1)

    def test_func_containing(self):
        image = Image(_module())
        assert image.func_containing(image.entry_addr) == "main"
        assert image.func_containing(DATA_BASE) is None

    def test_call_kind_decoding(self):
        image = Image(_module())
        main = image.module.functions["main"]
        kinds = [
            image.call_kind_at(image.addr_of("main", i))
            for i in range(len(main.body))
        ]
        assert "direct" in kinds
        assert "indirect" in kinds
        assert image.call_kind_at(DATA_BASE) is None

    def test_describe(self):
        image = Image(_module())
        assert image.describe(image.entry_addr) == "main+0x0"
        assert image.describe(0x10) == "0x10"


class TestAddressResolutionEdges:
    """Boundary behavior the binary-level analyzer leans on: exact
    function extents, padding faults, and call-kind decoding at edges."""

    def test_addr_of_first_and_last_instruction(self):
        image = Image(_module())
        main = image.module.functions["main"]
        first = image.addr_of("main", 0)
        last = image.addr_of("main", len(main.body) - 1)
        assert first == image.func_base["main"]
        assert last == first + (len(main.body) - 1) * INSTR_STRIDE
        assert image.instruction_at(last) is main.body[-1]

    def test_instruction_at_function_boundary(self):
        """The first address past a body is padding even though it still
        sits inside the function's aligned span."""
        image = Image(_module())
        callee = image.module.functions["callee"]
        end = image.addr_of("callee", len(callee.body))
        assert end < image.func_base["main"]  # inside the aligned span
        with pytest.raises(ExecutionFault):
            image.instruction_at(end)
        assert image.func_containing(end) is None

    def test_instruction_at_unmapped_addresses(self):
        image = Image(_module())
        for addr in (0, TEXT_BASE - INSTR_STRIDE, image.text_end, DATA_BASE):
            with pytest.raises(ExecutionFault):
                image.instruction_at(addr)

    def test_instruction_at_misaligned(self):
        image = Image(_module())
        with pytest.raises(ExecutionFault):
            image.instruction_at(image.entry_addr + INSTR_STRIDE - 1)

    def test_call_kind_at_exact_sites(self):
        image = Image(_module())
        main = image.module.functions["main"]
        kinds = {
            idx: image.call_kind_at(image.addr_of("main", idx))
            for idx in range(len(main.body))
        }
        # main = [Const, Call, FuncAddr, CallIndirect, Ret]
        assert kinds[1] == "direct"
        assert kinds[3] == "indirect"
        assert kinds[0] is None and kinds[4] is None

    def test_call_kind_at_boundary_and_unmapped(self):
        image = Image(_module())
        callee_end = image.addr_of("callee", 2)
        assert image.call_kind_at(callee_end) is None  # padding
        assert image.call_kind_at(image.text_end) is None  # past text
        assert image.call_kind_at(TEXT_BASE - INSTR_STRIDE) is None
        assert image.call_kind_at(image.entry_addr + 1) is None  # misaligned

    def test_last_instruction_of_text_segment(self):
        """text_end is exclusive: the last laid-out instruction resolves,
        one stride past it faults."""
        image = Image(_module())
        last_base = max(image.func_base.values())
        name = next(n for n, b in image.func_base.items() if b == last_base)
        body = image.module.functions[name].body
        last_addr = image.addr_of(name, len(body) - 1)
        assert last_addr < image.text_end
        image.instruction_at(last_addr)  # must not fault
        with pytest.raises(ExecutionFault):
            image.instruction_at(last_addr + INSTR_STRIDE)


class TestGlobalsMaterialization:
    def test_write_globals(self):
        memory = Memory()
        image = load_module(_module(), memory)
        hello = image.global_addr["hello"]
        assert memory.read_cstr(hello) == "hi"
        assert memory.read(image.global_addr["counter"]) == 7


def _reference_globals(image):
    """The word-by-word loader: one ``write_block`` per global."""
    memory = Memory()
    for gvar in image.module.globals.values():
        memory.write_block(image.global_addr[gvar.name], gvar.initial_words())
    return memory


def _target_modules():
    from repro.attacks.runner import TARGETS
    from repro.compiler.pipeline import protect

    for name, target in sorted(TARGETS.items()):
        module = target.build()
        yield name, module
        yield name + "+bastion", protect(module).module


class TestGlobalsOncePerImage:
    def test_process_memory_equals_reference_loop_for_every_attack_target(self):
        from repro.kernel.kernel import Kernel

        kernel = Kernel()
        for name, module in _target_modules():
            image = Image(module)
            reference = list(_reference_globals(image)._words.items())
            assert reference, name
            for _ in range(2):  # the first process lays out, the second copies
                proc = kernel.create_process(name, image)
                assert list(proc.memory._words.items()) == reference, name

    def test_processes_of_one_image_never_share_words(self):
        from repro.kernel.kernel import Kernel

        kernel = Kernel()
        image = Image(_module())
        first = kernel.create_process("a", image)
        second = kernel.create_process("b", image)
        assert first.memory._words is not second.memory._words
        counter = image.global_addr["counter"]
        first.memory.write(counter, 99)
        assert second.memory.read(counter) == 7
        assert kernel.create_process("c", image).memory.read(counter) == 7

    def test_non_int_initializer_raises_at_every_process_creation(self):
        from repro.kernel.kernel import Kernel

        mb = ModuleBuilder("bad")
        mb.global_var("table", init=[1, "x"])
        mb.function("main").ret(0)
        image = Image(mb.build())  # layout alone does not read the values
        kernel = Kernel()
        for _ in range(2):
            with pytest.raises(TypeError, match="memory stores ints, got 'x'"):
                kernel.create_process("bad", image)
