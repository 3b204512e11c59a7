"""Sparse, word-granular simulated memory.

One addressable slot per 8-byte-aligned address; each slot holds one Python
int.  Strings are stored C-style, one character code per slot with a NUL
terminator (see DESIGN.md §6).  Reads of unmapped slots return 0 — the
region/permission machinery lives in the kernel's mm, while this class is
the raw backing store both the application *and* the attacker touch.
"""

from repro.errors import SegmentationFault

#: Bytes per slot (addresses step by this much between adjacent slots).
WORD = 8


class Memory:
    """Word-granular sparse memory."""

    def __init__(self):
        self._words = {}

    def read(self, addr):
        """Read the slot at ``addr`` (0 if never written)."""
        # Fast path: a well-formed address needs no isinstance checks.
        # ``True`` (a bool) fails the alignment test and falls through to
        # ``_check``, which reproduces the exact fault for every bad input.
        if type(addr) is int and addr >= 0 and not addr & 7:
            return self._words.get(addr, 0)
        self._check(addr)
        return self._words.get(addr, 0)

    def write(self, addr, value):
        """Write one slot."""
        if type(addr) is int and addr >= 0 and not addr & 7:
            if not isinstance(value, int):
                raise TypeError("memory stores ints, got %r" % (value,))
            self._words[addr] = value
            return
        self._check(addr)
        if not isinstance(value, int):
            raise TypeError("memory stores ints, got %r" % (value,))
        self._words[addr] = value

    def _check(self, addr):
        if not isinstance(addr, int):
            raise SegmentationFault("non-integer address %r" % (addr,))
        if addr < 0:
            raise SegmentationFault("negative address %#x" % addr)
        if addr % WORD:
            raise SegmentationFault("unaligned access at %#x" % addr)

    # -- bulk helpers ----------------------------------------------------

    def read_block(self, addr, nwords):
        """Read ``nwords`` consecutive slots."""
        return [self.read(addr + i * WORD) for i in range(nwords)]

    def write_block(self, addr, words):
        """Write consecutive slots from an iterable of ints."""
        for i, value in enumerate(words):
            self.write(addr + i * WORD, value)

    def copy_from(self, other):
        """Write every slot of ``other`` into this memory, in its order."""
        self._words.update(other._words)

    def read_cstr(self, addr, max_slots=4096):
        """Read a NUL-terminated string starting at ``addr``."""
        chars = []
        for i in range(max_slots):
            word = self.read(addr + i * WORD)
            if word == 0:
                return "".join(chars)
            chars.append(chr(word & 0x10FFFF))
        return "".join(chars)

    def write_cstr(self, addr, text):
        """Write ``text`` as a NUL-terminated string; returns slots used."""
        for i, ch in enumerate(text):
            self.write(addr + i * WORD, ord(ch))
        self.write(addr + len(text) * WORD, 0)
        return len(text) + 1

    def read_vector(self, addr, max_entries=64):
        """Read a NULL-terminated pointer vector (argv/envp style)."""
        out = []
        for i in range(max_entries):
            word = self.read(addr + i * WORD)
            if word == 0:
                break
            out.append(word)
        return out

    def snapshot_region(self, addr, nwords):
        """Copy of a region as a tuple (for tests and attack staging)."""
        return tuple(self.read_block(addr, nwords))

    def mapped_count(self):
        """How many slots have ever been written (diagnostics)."""
        return len(self._words)
