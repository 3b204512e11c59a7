"""seccomp-BPF: filter objects, action precedence, and filter generation.

The BASTION monitor (§7.1) installs a filter specifying:

- ``SECCOMP_RET_ALLOW`` for all non-sensitive syscalls,
- ``SECCOMP_RET_KILL`` for *not-callable* syscalls (call-type context's
  coarse half), and
- ``SECCOMP_RET_TRACE`` for directly-/indirectly-callable sensitive
  syscalls, so the monitor is stopped into for verification.

:func:`build_action_filter` turns such an action map into a real cBPF
program (one JEQ chain entry per syscall), which the kernel evaluates on
every syscall of the protected process.
"""

from dataclasses import dataclass, field

from repro.kernel.bpf import (
    AUDIT_ARCH_X86_64,
    BPF_ABS,
    BPF_JEQ,
    BPF_JMP,
    BPF_K,
    BPF_LD,
    BPF_RET,
    BPF_W,
    BPFProgram,
    SECCOMP_DATA_ARCH,
    SECCOMP_DATA_NR,
    SeccompData,
    jump,
    stmt,
)
from repro.syscalls.table import SYSCALLS

SECCOMP_RET_KILL_PROCESS = 0x80000000
SECCOMP_RET_KILL_THREAD = 0x00000000
SECCOMP_RET_TRAP = 0x00030000
SECCOMP_RET_ERRNO = 0x00050000
SECCOMP_RET_TRACE = 0x7FF00000
SECCOMP_RET_LOG = 0x7FFC0000
SECCOMP_RET_ALLOW = 0x7FFF0000

SECCOMP_RET_ACTION_FULL = 0xFFFF0000
SECCOMP_RET_DATA = 0x0000FFFF

#: Linux action precedence (highest wins when multiple filters disagree).
_PRECEDENCE = (
    SECCOMP_RET_KILL_PROCESS,
    SECCOMP_RET_KILL_THREAD,
    SECCOMP_RET_TRAP,
    SECCOMP_RET_ERRNO,
    SECCOMP_RET_TRACE,
    SECCOMP_RET_LOG,
    SECCOMP_RET_ALLOW,
)


def action_name(action):
    """Printable name of a seccomp action value."""
    names = {
        SECCOMP_RET_KILL_PROCESS: "KILL_PROCESS",
        SECCOMP_RET_KILL_THREAD: "KILL_THREAD",
        SECCOMP_RET_TRAP: "TRAP",
        SECCOMP_RET_ERRNO: "ERRNO",
        SECCOMP_RET_TRACE: "TRACE",
        SECCOMP_RET_LOG: "LOG",
        SECCOMP_RET_ALLOW: "ALLOW",
    }
    return names.get(action & SECCOMP_RET_ACTION_FULL, "0x%08x" % action)


#: marks a filter whose ALLOW set has not been computed yet
_UNSET = object()
#: the numbers an ALLOW set is computed over: the whole syscall table
_ALL_NRS = tuple(entry.nr for entry in SYSCALLS)


@dataclass
class SeccompFilter:
    """One attached filter: a cBPF program plus bookkeeping."""

    program: BPFProgram
    label: str = "filter"
    _allow_nrs: object = field(
        default=_UNSET, init=False, repr=False, compare=False
    )

    def evaluate(self, data):
        """Run the program; returns ``(action_value, instructions_executed)``."""
        return self.program.run(data)

    def allow_nrs(self):
        """Syscall numbers this filter ALLOWs whatever their arguments.

        ``None`` when the program reads arguments or the instruction
        pointer (no constant verdict exists).  Computed once per filter,
        at its first install, by evaluating the program against every
        syscall number; a filter shared by many processes is evaluated
        once in total.  The program must not be edited after that
        (fault injection swaps in a copy instead, see repro.fuzz.faults).
        """
        if self._allow_nrs is _UNSET:
            self._allow_nrs = (
                frozenset(
                    nr
                    for nr in _ALL_NRS
                    if self.evaluate(SeccompData(nr=nr))[0]
                    & SECCOMP_RET_ACTION_FULL
                    == SECCOMP_RET_ALLOW
                )
                if _filter_is_nr_only(self)
                else None
            )
        return self._allow_nrs


def combine_actions(actions):
    """Linux semantics: every attached filter runs; strictest action wins."""
    best = SECCOMP_RET_ALLOW
    best_rank = _PRECEDENCE.index(SECCOMP_RET_ALLOW)
    for action in actions:
        base = action & SECCOMP_RET_ACTION_FULL
        try:
            rank = _PRECEDENCE.index(base)
        except ValueError:
            rank = 0  # unknown action values are treated as KILL
        if rank < best_rank:
            best, best_rank = action, rank
    return best


def build_action_filter(action_by_nr, default_action=SECCOMP_RET_ALLOW, label="bastion"):
    """Build a :class:`SeccompFilter` from ``{syscall_nr: action}``.

    Generated shape (exactly the classic seccomp tutorial filter)::

        ld  [arch]
        jne #AUDIT_ARCH_X86_64, kill
        ld  [nr]
        jeq #nr_0, ret_action_0
        jeq #nr_1, ret_action_1
        ...
        ret #default
        ret #KILL   ; arch mismatch
    """
    instructions = [stmt(BPF_LD | BPF_W | BPF_ABS, SECCOMP_DATA_ARCH)]
    body = [stmt(BPF_LD | BPF_W | BPF_ABS, SECCOMP_DATA_NR)]

    entries = sorted(action_by_nr.items())
    # Each entry is a JEQ that either skips to its own RET (placed after the
    # chain and the default RET) or falls through to the next JEQ.  The i-th
    # RET sits (n-1-i) JEQs + 1 default RET + i earlier RETs past the JEQ,
    # which is a constant distance of n.
    n = len(entries)
    for nr, _action in entries:
        body.append(jump(BPF_JMP | BPF_JEQ | BPF_K, nr, n, 0))
    body.append(stmt(BPF_RET | BPF_K, default_action))
    for _nr, action in entries:
        body.append(stmt(BPF_RET | BPF_K, action))

    # arch check: jump over the whole body on mismatch, to the final KILL.
    instructions.append(
        jump(BPF_JMP | BPF_JEQ | BPF_K, AUDIT_ARCH_X86_64, 0, len(body))
    )
    instructions.extend(body)
    instructions.append(stmt(BPF_RET | BPF_K, SECCOMP_RET_KILL_PROCESS))
    return SeccompFilter(BPFProgram(instructions), label=label)


def evaluate_filters(filters, nr, ip=0, args=(0, 0, 0, 0, 0, 0)):
    """Evaluate all attached filters; returns ``(action, instructions_run)``."""
    data = SeccompData(nr=nr, instruction_pointer=ip, args=tuple(args))
    total_insns = 0
    actions = []
    for filt in filters:
        action, executed = filt.evaluate(data)
        actions.append(action)
        total_insns += executed
    if not actions:
        return SECCOMP_RET_ALLOW, 0
    return combine_actions(actions), total_insns


# ---------------------------------------------------------------------------
# per-syscall action cache (Linux's SECCOMP_CACHE_NR_ONLY bitmap)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeccompActionCache:
    """Syscall numbers whose combined filter action is provably ALLOW.

    Linux precomputes, at filter-attach time, a per-syscall-nr bitmap of
    numbers every attached filter allows *regardless of arguments*; those
    syscalls then skip the BPF engine entirely (a single bit test).  Only
    ALLOW is ever cached — any stricter action still runs the filters, so
    the cache can never weaken enforcement, only skip re-deriving an ALLOW.
    """

    allow_nrs: frozenset

    def allows(self, nr):
        return nr in self.allow_nrs

    def __len__(self):
        return len(self.allow_nrs)


def _filter_is_nr_only(filt):
    """True if the program reads nothing but the syscall nr and arch.

    The cache is only sound when the verdict cannot depend on arguments or
    the instruction pointer.  Rather than emulating with unknowns (Linux's
    approach), reject any program whose absolute loads reach past the
    ``arch`` field; :func:`build_action_filter` programs always pass.
    """
    for ins in filt.program.instructions:
        if ins.code & 0x07 != BPF_LD:
            continue
        mode = ins.code & 0xE0
        if mode == BPF_ABS and ins.k not in (SECCOMP_DATA_NR, SECCOMP_DATA_ARCH):
            return False
    return True


def compose_action_cache(filters):
    """The action cache of a filter stack, from per-filter ALLOW sets.

    Exact with respect to :func:`compute_action_cache`: the combined
    action is the strictest one (:func:`combine_actions`) and ALLOW ranks
    last, so a stack ALLOWs a number exactly when every filter does — the
    intersection of the filters' sets.  Any argument/ip-dependent filter
    (``allow_nrs() is None``) disables the cache, as does an empty stack.
    """
    allow = None
    for filt in filters:
        nrs = filt.allow_nrs()
        if nrs is None:
            return None
        allow = nrs if allow is None else allow & nrs
    if allow is None:
        return None
    return SeccompActionCache(allow_nrs=allow)


def compute_action_cache(filters, nrs):
    """Precompute the ALLOW bitmap for ``nrs`` against ``filters``.

    Returns ``None`` (no cache, every syscall runs the BPF engine) when no
    filter is attached or any attached filter is argument/ip-dependent.
    The reference the kernel's :func:`compose_action_cache` is tested
    against: it evaluates the whole stack per number.
    """
    if not filters or not all(_filter_is_nr_only(f) for f in filters):
        return None
    allow = set()
    for nr in nrs:
        action, _insns = evaluate_filters(filters, nr)
        if action & SECCOMP_RET_ACTION_FULL == SECCOMP_RET_ALLOW:
            allow.add(nr)
    return SeccompActionCache(allow_nrs=frozenset(allow))
