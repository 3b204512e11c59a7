"""IR module: the unit of compilation, loading, and protection."""

import copy

from repro.errors import IRError
from repro.ir.types import TypeTable, GlobalVar


class Module:
    """A whole program: functions, globals, and struct types.

    Attributes:
        name: module (program) name, used in reports.
        functions: ordered dict of name -> :class:`repro.ir.function.Function`.
        globals: ordered dict of name -> :class:`repro.ir.types.GlobalVar`.
        types: :class:`repro.ir.types.TypeTable` of struct definitions.
        entry: entry-point function name (default ``main``).
    """

    def __init__(self, name="a.out", entry="main"):
        self.name = name
        self.entry = entry
        self.functions = {}
        self.globals = {}
        self.types = TypeTable()
        #: (snapshot, {key: value}) of module-derived artifacts; see derive()
        self._derived = None

    def add_function(self, function):
        if function.name in self.functions:
            raise IRError("function %r already defined" % function.name)
        self.functions[function.name] = function
        return function

    def add_global(self, global_var):
        if global_var.name in self.globals:
            raise IRError("global %r already defined" % global_var.name)
        if not isinstance(global_var, GlobalVar):
            raise IRError("add_global expects a GlobalVar")
        self.globals[global_var.name] = global_var
        return global_var

    def function(self, name):
        try:
            return self.functions[name]
        except KeyError:
            raise IRError("no function %r in module %s" % (name, self.name)) from None

    def has_function(self, name):
        return name in self.functions

    def struct(self, name):
        return self.types.get(name)

    def clone(self):
        """Deep copy — the instrumenter works on a copy, never in place.

        The copy starts with an empty :meth:`derive` memo.
        """
        return copy.deepcopy(self)

    def __getstate__(self):
        # copies and pickles never carry the memo: its artifacts belong to
        # this module object (an Image resolves addresses against it)
        state = dict(self.__dict__)
        state["_derived"] = None
        return state

    # -- derived artifacts ----------------------------------------------

    def derive(self, key, build):
        """The artifact ``key`` derived from this module, built once.

        Launch-time artifacts that depend only on the module — its
        validated image, its debloated copy, compiled policies and seccomp
        filters — are memoized here, so every launch of one module shares
        them and the memo lives exactly as long as the module.  ``build``
        is called as ``build(module)`` on a miss; an exception propagates
        and caches nothing.

        Every lookup first compares a structural snapshot (see
        :meth:`_snapshot`) with the one the memo was filled under and
        drops the whole memo on any difference, so a changed module is
        re-validated and re-derived even when the edit skipped
        :meth:`Function.invalidate`.
        """
        snapshot = self._snapshot()
        memo = self._derived
        if memo is None or memo[0] != snapshot:
            memo = self._derived = (snapshot, {})
        table = memo[1]
        if key not in table:
            table[key] = build(self)
        return table[key]

    def _snapshot(self):
        """Everything a derivation reads, by identity.

        Each function contributes its dict key, the object, its version,
        params, wrapper flag and a tuple of its body's instruction
        *objects* (holding them keeps a replaced instruction's id from
        being reused).  Instructions and globals are compared by identity:
        replacing one is noticed, mutating one's fields in place is not —
        call :meth:`Function.invalidate` after such an edit.
        """
        return (
            self.entry,
            tuple(
                (name, f, f.version, tuple(f.params), f.is_wrapper, tuple(f.body))
                for name, f in self.functions.items()
            ),
            tuple(self.globals.items()),
            tuple(self.types.structs.items()),
        )

    def instruction_count(self):
        return sum(len(f.body) for f in self.functions.values())

    def __repr__(self):
        return "<Module %s: %d functions, %d globals, %d instrs>" % (
            self.name,
            len(self.functions),
            len(self.globals),
            self.instruction_count(),
        )
