"""Lays a validated IR module out into an executable image.

Address-space layout (see DESIGN.md §6)::

    0x0000_0040_0000  text      (instruction i of a function: base + 4*i)
    0x0000_0060_0000  data      (globals; strings one char per slot)
    0x0000_1000_0000  heap      (brk / malloc bump region)
    0x00007e00_00000000  BASTION shadow memory (mapped by the monitor)
    0x00007f00_00000000  mmap region
    0x00007ffd_00000000  stack top (grows down)

The image resolves code addresses back to ``(function, instruction index)``
so the CPU, the monitor (decoding call kinds at unwound return addresses),
and the attack scripts all share one source of truth for symbols.
"""

import bisect

from repro.errors import ExecutionFault, LoaderError
from repro.ir.instructions import Call, CallIndirect
from repro.ir.validate import validate_module
from repro.vm.memory import WORD

TEXT_BASE = 0x0040_0000
DATA_BASE = 0x0060_0000
HEAP_BASE = 0x1000_0000
SHADOW_BASE = 0x7E00_0000_0000
MMAP_BASE = 0x7F00_0000_0000
STACK_TOP = 0x7FFD_0000_0000

#: Code addresses advance by 4 per instruction (x86-ish flavour only).
INSTR_STRIDE = 4
_FUNC_ALIGN = 0x100


class Image:
    """A loaded program: code addresses, data addresses, symbol lookup."""

    def __init__(self, module):
        validate_module(module)
        self.module = module
        self.func_base = {}
        self.global_addr = {}
        self._bases = []  # sorted (base, name) for address resolution

        addr = TEXT_BASE
        for func in module.functions.values():
            self.func_base[func.name] = addr
            self._bases.append((addr, func.name))
            span = max(len(func.body), 1) * INSTR_STRIDE
            addr += ((span + _FUNC_ALIGN - 1) // _FUNC_ALIGN) * _FUNC_ALIGN
        self.text_end = addr

        daddr = DATA_BASE
        for gvar in module.globals.values():
            self.global_addr[gvar.name] = daddr
            daddr += gvar.size * WORD
        self.data_end = daddr

        if self.text_end > DATA_BASE:
            raise LoaderError("text segment overflows into data segment")

        self.entry_addr = self.func_base[module.entry]
        self._base_keys = [b for b, _ in self._bases]

    # -- code resolution ---------------------------------------------------

    def func_containing(self, addr):
        """Name of the function whose range covers ``addr`` (or None)."""
        if not (TEXT_BASE <= addr < self.text_end):
            return None
        pos = bisect.bisect_right(self._base_keys, addr) - 1
        if pos < 0:
            return None
        base, name = self._bases[pos]
        func = self.module.functions[name]
        if addr < base + len(func.body) * INSTR_STRIDE:
            return name
        return None

    def resolve_code(self, addr):
        """Map a code address to ``(function, instruction index)``.

        Raises:
            ExecutionFault: if ``addr`` is not a valid instruction address —
                the DEP/NX behaviour attacks run into when jumping to data.
        """
        name = self.func_containing(addr)
        if name is None:
            raise ExecutionFault("instruction fetch from %#x" % addr, rip=addr)
        base = self.func_base[name]
        offset = addr - base
        if offset % INSTR_STRIDE:
            raise ExecutionFault("misaligned fetch at %#x" % addr, rip=addr)
        return self.module.functions[name], offset // INSTR_STRIDE

    def instruction_at(self, addr):
        func, idx = self.resolve_code(addr)
        return func.body[idx]

    def addr_of(self, func_name, index=0):
        """Code address of instruction ``index`` of ``func_name``."""
        return self.func_base[func_name] + index * INSTR_STRIDE

    def call_kind_at(self, addr):
        """Classify the instruction at ``addr``: 'direct', 'indirect', None.

        The monitor uses this to decode the call instruction sitting at
        ``return_address - 4`` while enforcing the call-type context (§7.2).
        """
        try:
            instr = self.instruction_at(addr)
        except ExecutionFault:
            return None
        if isinstance(instr, Call):
            return "direct"
        if isinstance(instr, CallIndirect):
            return "indirect"
        return None

    def describe(self, addr):
        """Human-readable ``func+0xoff`` form of a code address."""
        name = self.func_containing(addr)
        if name is None:
            return "%#x" % addr
        return "%s+%#x" % (name, addr - self.func_base[name])

    # -- data ----------------------------------------------------------------

    def write_globals(self, memory):
        """Materialize global initializers into ``memory``."""
        for gvar in self.module.globals.values():
            memory.write_block(self.global_addr[gvar.name], gvar.initial_words())


def load_module(module, memory=None):
    """The validated, laid-out image of ``module``; optionally write its
    globals to ``memory``.

    The image is built once per module (:meth:`Module.derive`) and shared
    by every launch: an :class:`Image` is read-only after construction,
    and per-process state (memory, registers, predecoded closures) lives
    elsewhere.  A changed module is re-validated on the next call.
    """
    image = module.derive("image", Image)
    if memory is not None:
        image.write_globals(memory)
    return image
