"""The repo-specific invariant rules.

Each rule encodes one safety contract that previously lived only in
docstrings and review memory.  See the README "Static analysis" section
for the rule table; run ``repro lint --list-rules`` for a live listing.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator, Sequence
from pathlib import Path

from .core import Finding, ModuleSource, Rule

__all__ = ["ALL_RULES"]


def _dotted(node: ast.expr) -> str:
    """Best-effort dotted name of a call target: ``self._wal.append_put``,
    ``os.replace``, ``super().put``; empty string for anything exotic."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else ""
    if isinstance(node, ast.Call):
        base = _dotted(node.func)
        return f"{base}()" if base else ""
    return ""


def _is_self_attr(node: ast.expr, attr: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


class _ScopedVisitor(ast.NodeVisitor):
    """NodeVisitor that tracks the enclosing function-name stack."""

    def __init__(self) -> None:
        self.func_stack: list[str] = []

    @property
    def current_function(self) -> str:
        return self.func_stack[-1] if self.func_stack else ""

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.func_stack.append(node.name)
        self.generic_visit(node)
        self.func_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.func_stack.append(node.name)
        self.generic_visit(node)
        self.func_stack.pop()


# ----------------------------------------------------------------------
# lock-discipline
# ----------------------------------------------------------------------

#: Methods that document "caller holds the maintenance lock".  They may be
#: called only under ``with self._maintenance_lock`` or from another such
#: method (the outermost caller holds the lock).
_LOCKED_METHOD = re.compile(r"(?:_locked$|^_commit_merge$)")


class LockDisciplineRule(Rule):
    id = "lock-discipline"
    summary = (
        "run-list mutations and *_locked/_commit_merge calls must hold "
        "the maintenance lock"
    )
    invariant = (
        "readers take lock-free copy-on-write snapshots of self.sstables, "
        "so every swap of the list (and every call into a method that "
        "mutates it) must happen under self._maintenance_lock"
    )
    paths = (
        "repro/lsm/db.py",
        "repro/lsm/store.py",
        "repro/lsm/compaction.py",
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        rule = self
        findings: list[Finding] = []

        class Visitor(_ScopedVisitor):
            def __init__(self) -> None:
                super().__init__()
                self.lock_depth = 0

            def _in_locked_context(self, *, assignment: bool) -> bool:
                if self.lock_depth > 0:
                    return True
                if _LOCKED_METHOD.search(self.current_function):
                    return True
                # Construction is single-threaded: __init__ may seed the
                # run list before any worker can exist.
                return assignment and self.current_function == "__init__"

            def visit_With(self, node: ast.With) -> None:
                holds = any(
                    _is_self_attr(item.context_expr, "_maintenance_lock")
                    for item in node.items
                )
                if holds:
                    self.lock_depth += 1
                self.generic_visit(node)
                if holds:
                    self.lock_depth -= 1

            def _check_target(self, target: ast.expr) -> None:
                nodes = [target]
                if isinstance(target, (ast.Tuple, ast.List)):
                    nodes = list(target.elts)
                for node in nodes:
                    if isinstance(node, ast.Subscript):
                        node = node.value
                    if _is_self_attr(node, "sstables") and not self._in_locked_context(
                        assignment=True
                    ):
                        findings.append(
                            rule.finding(
                                module,
                                node,
                                "self.sstables mutated outside "
                                "'with self._maintenance_lock'",
                            )
                        )

            def visit_Assign(self, node: ast.Assign) -> None:
                for target in node.targets:
                    self._check_target(target)
                self.generic_visit(node)

            def visit_AugAssign(self, node: ast.AugAssign) -> None:
                self._check_target(node.target)
                self.generic_visit(node)

            def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
                if node.value is not None:
                    self._check_target(node.target)
                self.generic_visit(node)

            def visit_Call(self, node: ast.Call) -> None:
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                    and _LOCKED_METHOD.search(func.attr)
                    and not self._in_locked_context(assignment=False)
                ):
                    findings.append(
                        rule.finding(
                            module,
                            node,
                            f"locked method self.{func.attr}() called outside "
                            "'with self._maintenance_lock'",
                        )
                    )
                self.generic_visit(node)

        Visitor().visit(module.tree)
        return iter(findings)


# ----------------------------------------------------------------------
# durability-discipline
# ----------------------------------------------------------------------

#: The only functions allowed to touch the filesystem with raw writes:
#: ``_atomic_write`` (store.py: write-temp + fsync + os.replace + dir
#: fsync) and the WAL's ``_append`` / ``_write_header_file``.
_APPROVED_WRITERS = frozenset({"_atomic_write", "_write_header_file", "_append"})
_WRITE_MODE = re.compile(r"[wax+]")


class DurabilityDisciplineRule(Rule):
    id = "durability-discipline"
    summary = (
        "raw os.replace/os.write/open(..., 'w') only inside the approved "
        "durability helpers"
    )
    invariant = (
        "every durable byte goes through _atomic_write or a WAL append "
        "helper, so nothing reaches disk without the fsync-before-replace "
        "ordering the crash suites verify"
    )
    paths = ("repro/lsm/store.py", "repro/lsm/wal.py")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        rule = self
        findings: list[Finding] = []

        class Visitor(_ScopedVisitor):
            def visit_Call(self, node: ast.Call) -> None:
                if self.current_function not in _APPROVED_WRITERS:
                    name = _dotted(node.func)
                    if name in ("os.replace", "os.write"):
                        findings.append(
                            rule.finding(
                                module,
                                node,
                                f"bare {name}() outside the approved durability "
                                "helpers (_atomic_write / WAL _append)",
                            )
                        )
                    elif name == "open":
                        mode = self._open_mode(node)
                        if mode is None or _WRITE_MODE.search(mode):
                            shown = "non-literal mode" if mode is None else f"{mode!r}"
                            findings.append(
                                rule.finding(
                                    module,
                                    node,
                                    f"bare open(..., {shown}) outside the approved "
                                    "durability helpers",
                                )
                            )
                self.generic_visit(node)

            @staticmethod
            def _open_mode(node: ast.Call) -> str | None:
                mode: ast.expr | None = None
                if len(node.args) >= 2:
                    mode = node.args[1]
                for keyword in node.keywords:
                    if keyword.arg == "mode":
                        mode = keyword.value
                if mode is None:
                    return "r"
                if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
                    return mode.value
                return None

        Visitor().visit(module.tree)
        return iter(findings)


# ----------------------------------------------------------------------
# wal-ordering
# ----------------------------------------------------------------------

_MEMTABLE_MUTATIONS = frozenset(
    {
        "self.memtable.put",
        "self.memtable.put_many",
        "self.memtable.delete",
        "self.memtable.delete_many",
        "self.memtable.clear",
        "super().put",
        "super().put_many",
        "super().delete",
        "super().delete_many",
    }
)


class WalOrderingRule(Rule):
    id = "wal-ordering"
    summary = "memtable mutations in Persistent* classes need a prior WAL append"
    invariant = (
        "an acknowledged write must be in the kernel's WAL file before the "
        "memtable mutates, or a crash between the two loses it"
    )
    paths = ("repro/lsm/store.py",)

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        findings: list[Finding] = []
        for klass in ast.walk(module.tree):
            if not (
                isinstance(klass, ast.ClassDef) and klass.name.startswith("Persistent")
            ):
                continue
            for method in klass.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                append_lines: list[int] = []
                mutations: list[ast.Call] = []
                for node in ast.walk(method):
                    if not isinstance(node, ast.Call):
                        continue
                    name = _dotted(node.func)
                    if name.startswith("self._wal.append"):
                        append_lines.append(node.lineno)
                    elif name in _MEMTABLE_MUTATIONS:
                        mutations.append(node)
                for mutation in mutations:
                    if not any(line < mutation.lineno for line in append_lines):
                        findings.append(
                            self.finding(
                                module,
                                mutation,
                                f"{_dotted(mutation.func)}() in "
                                f"{klass.name}.{method.name} has no preceding "
                                "self._wal.append_*() in the same method",
                            )
                        )
        return iter(findings)


# ----------------------------------------------------------------------
# serial-discipline
# ----------------------------------------------------------------------

_KIND_CONST = re.compile(r"^KIND_[A-Z0-9_]+$")
#: Identifier fragments that count as "names the offending file".
_PATHISH = ("path", "file", "name", "context", "root", "tmp", "director", "where")


class SerialDisciplineRule(Rule):
    id = "serial-discipline"
    summary = (
        "SerialError must name the offending file; every KIND_* constant "
        "not listed in RETIRED_KINDS needs a reader"
    )
    invariant = (
        "corruption reports are actionable only if they say *which* file "
        "is bad, and a frame kind nobody can read is dead data on disk "
        "(a retired kind keeps its value reserved but has no reader)"
    )
    paths = (
        "repro/lsm/store.py",
        "repro/lsm/wal.py",
        "repro/lsm/blocks.py",
        "repro/serial.py",
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if module.display.endswith("repro/serial.py"):
            return self._check_kind_registry(module)
        return self._check_raises(module)

    def _check_raises(self, module: ModuleSource) -> Iterator[Finding]:
        wrapped = self._wrapped_linenos(module.tree)
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and _dotted(node.exc.func).endswith("SerialError")
            ):
                continue
            if node.lineno in wrapped:
                continue
            if not node.exc.args or not self._names_a_file(node.exc.args[0]):
                yield self.finding(
                    module,
                    node,
                    "raise SerialError(...) does not interpolate the offending "
                    "file's path or name",
                )

    @classmethod
    def _wrapped_linenos(cls, tree: ast.AST) -> set[int]:
        """Lines inside ``try`` bodies whose handler re-raises a compliant
        SerialError — the standard "inner raise, outer adds the path"
        wrapping pattern, which satisfies the contract at the boundary."""
        lines: set[int] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Try):
                continue
            if not any(cls._handler_adds_path(handler) for handler in node.handlers):
                continue
            for stmt in node.body:
                last = getattr(stmt, "end_lineno", stmt.lineno)
                lines.update(range(stmt.lineno, last + 1))
        return lines

    @classmethod
    def _handler_adds_path(cls, handler: ast.ExceptHandler) -> bool:
        catches = handler.type
        names = [
            _dotted(n)
            for n in (catches.elts if isinstance(catches, ast.Tuple) else [catches])
            if n is not None
        ]
        if not any(
            name.endswith(("SerialError", "ValueError", "Exception"))
            for name in names
        ):
            return False
        for node in ast.walk(handler):
            if (
                isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and _dotted(node.exc.func).endswith("SerialError")
                and node.exc.args
                and cls._names_a_file(node.exc.args[0])
            ):
                return True
        return False

    @staticmethod
    def _names_a_file(arg: ast.expr) -> bool:
        if not isinstance(arg, ast.JoinedStr):
            return False
        for part in arg.values:
            if isinstance(part, ast.FormattedValue):
                source = ast.unparse(part.value).lower()
                if any(fragment in source for fragment in _PATHISH):
                    return True
        return False

    def _check_kind_registry(self, module: ModuleSource) -> Iterator[Finding]:
        constants = self._kind_constants(module)
        named: set[str] = set()
        for node in module.tree.body:
            if (
                isinstance(node, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "KIND_NAMES"
                    for t in node.targets
                )
                and isinstance(node.value, ast.Dict)
            ):
                named = {
                    key.id for key in node.value.keys if isinstance(key, ast.Name)
                }
        for name, (lineno, _) in sorted(constants.items()):
            if name not in named:
                yield Finding(
                    self.id,
                    module.display,
                    lineno,
                    f"{name} is not registered in KIND_NAMES",
                )
        by_value: dict[int, list[str]] = {}
        for name, (_, value) in constants.items():
            by_value.setdefault(value, []).append(name)
        for value, names in sorted(by_value.items()):
            if len(names) > 1:
                lineno = min(constants[name][0] for name in names)
                yield Finding(
                    self.id,
                    module.display,
                    lineno,
                    f"frame kind value {value} is claimed by {sorted(names)}",
                )

    @staticmethod
    def _kind_constants(module: ModuleSource) -> dict[str, tuple[int, int]]:
        constants: dict[str, tuple[int, int]] = {}
        for node in module.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if (
                    isinstance(target, ast.Name)
                    and _KIND_CONST.match(target.id)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, int)
                ):
                    constants[target.id] = (node.lineno, node.value.value)
        return constants

    @staticmethod
    def _retired_names(module: ModuleSource) -> set[str]:
        """KIND_* names listed in the module's ``RETIRED_KINDS`` value."""
        for node in module.tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "RETIRED_KINDS"
                for t in node.targets
            ):
                return {
                    n.id
                    for n in ast.walk(node.value)
                    if isinstance(n, ast.Name) and _KIND_CONST.match(n.id)
                }
        return set()

    def finalize(self, modules: Sequence[ModuleSource]) -> Iterator[Finding]:
        serial = next(
            (m for m in modules if m.display.endswith("repro/serial.py")), None
        )
        if serial is None:
            return
        constants = self._kind_constants(serial)
        values = {value: name for name, (_, value) in constants.items()}

        # The runtime cross-check against the live repro.api registry only
        # makes sense when the scanned file *is* the installed repro.serial
        # (fixture copies get the static checks above, nothing more).
        if not self._is_installed_serial(serial):
            return
        yield from self.registry_findings(serial, constants, values, modules)

    @staticmethod
    def _is_installed_serial(module: ModuleSource) -> bool:
        try:
            import repro.serial as serial_mod

            return Path(serial_mod.__file__ or "").resolve() == module.path.resolve()
        except Exception:
            return False

    def registry_findings(
        self,
        serial: ModuleSource,
        constants: dict[str, tuple[int, int]],
        values: dict[int, str],
        modules: Sequence[ModuleSource],
        registry: dict[str, object] | None = None,
    ) -> Iterator[Finding]:
        """Cross-check KIND_* constants against the repro.api registry.

        ``registry`` (api kind -> entry with a ``serial_kind`` attribute)
        is injectable so tests can exercise the check without mutating the
        real registry.
        """
        if registry is None:
            import repro.api as api

            registry = dict(api._REGISTRY)

        claimed: dict[int, list[str]] = {}
        for api_kind, entry in registry.items():
            serial_kind = getattr(entry, "serial_kind", None)
            if serial_kind is None:
                continue
            claimed.setdefault(int(serial_kind), []).append(api_kind)
            if int(serial_kind) not in values:
                yield Finding(
                    self.id,
                    serial.display,
                    1,
                    f"filter kind {api_kind!r} loads serial kind {serial_kind}, "
                    "which has no KIND_* constant in repro/serial.py",
                )
        for serial_kind, api_kinds in sorted(claimed.items()):
            if len(api_kinds) > 1:
                yield Finding(
                    self.id,
                    serial.display,
                    1,
                    f"serial kind {serial_kind} has {len(api_kinds)} registered "
                    f"readers: {sorted(api_kinds)}",
                )

        # A retired kind is refused on read, so a loader for it is a
        # contradiction; every other declared kind needs exactly one reader:
        # a registry loader, or a store-layer module that references the
        # constant by name.
        retired = self._retired_names(serial)
        for name in sorted(retired & constants.keys()):
            lineno, value = constants[name]
            if value in claimed:
                yield Finding(
                    self.id,
                    serial.display,
                    lineno,
                    f"{name} is retired but filter kind(s) "
                    f"{sorted(claimed[value])} still load it",
                )
        referenced: set[str] = set()
        for module in modules:
            if module is serial:
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Name) and node.id in constants:
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr in constants:
                    referenced.add(node.attr)
        for name, (lineno, value) in sorted(constants.items()):
            if value not in claimed and name not in referenced | retired:
                yield Finding(
                    self.id,
                    serial.display,
                    lineno,
                    f"{name} has no reader: not in the repro.api registry and "
                    "never referenced by a scanned module",
                )


# ----------------------------------------------------------------------
# dtype-discipline
# ----------------------------------------------------------------------


class DtypeDisciplineRule(Rule):
    id = "dtype-discipline"
    summary = (
        "np.asarray/np.array/np.frombuffer on key/bounds arrays must pin a dtype"
    )
    invariant = (
        "an unpinned conversion silently promotes large uint64 keys to "
        "float64, corrupting them above 2**53 — the kind of bug the "
        "exactness ladder only catches downstream; an explicit dtype= "
        "(normally np.uint64, '<u8' on disk formats) makes the choice "
        "reviewable"
    )
    paths = ()  # every scanned file

    _CONVERTERS = frozenset(
        {
            "np.asarray",
            "numpy.asarray",
            "np.array",
            "numpy.array",
            "np.frombuffer",
            "numpy.frombuffer",
        }
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted(node.func)
            if name not in self._CONVERTERS:
                continue
            if not self._is_key_path(node):
                continue
            if not any(keyword.arg == "dtype" for keyword in node.keywords):
                yield self.finding(
                    module,
                    node,
                    f"{name}() on a key/bounds argument without an explicit "
                    "dtype= (pin np.uint64)",
                )

    @staticmethod
    def _is_key_path(node: ast.Call) -> bool:
        """True when an argument *value* mentions keys or bounds.

        Identifiers that only appear inside subscript indices/slices
        (``body[keys_end:...]``) do not count — the sliced value, not the
        index arithmetic, is what gets converted.
        """
        fragments: list[str] = []

        def collect(expr: ast.expr) -> None:
            if isinstance(expr, ast.Subscript):
                collect(expr.value)
                return
            for child in ast.iter_child_nodes(expr):
                if isinstance(child, ast.expr):
                    collect(child)
            if isinstance(expr, ast.Name):
                fragments.append(expr.id.lower())
            elif isinstance(expr, ast.Attribute):
                fragments.append(expr.attr.lower())
            elif isinstance(expr, ast.Constant) and isinstance(expr.value, str):
                fragments.append(expr.value.lower())

        for arg in node.args:
            collect(arg)
        return any("key" in f or "bound" in f for f in fragments)


# ----------------------------------------------------------------------
# exception-discipline
# ----------------------------------------------------------------------


class ExceptionDisciplineRule(Rule):
    id = "exception-discipline"
    summary = "no silently swallowed exceptions on worker paths"
    invariant = (
        "a worker thread cannot unwind the main thread, so an error that "
        "is not recorded in last_error (or re-raised) disappears — the "
        "stress driver polls last_error to turn worker crashes into "
        "whole-process kills"
    )
    paths = ("repro/parallel.py", "repro/lsm/compaction.py")

    _BROAD = frozenset({"Exception", "BaseException"})

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if all(isinstance(stmt, (ast.Pass, ast.Continue)) for stmt in node.body):
                yield self.finding(
                    module,
                    node,
                    "broad except swallows worker errors: record them in "
                    "last_error or re-raise",
                )

    def _is_broad(self, node: ast.expr | None) -> bool:
        if node is None:
            return True
        if isinstance(node, ast.Name):
            return node.id in self._BROAD
        if isinstance(node, ast.Tuple):
            return any(self._is_broad(elt) for elt in node.elts)
        return False


ALL_RULES: tuple[type[Rule], ...] = (
    LockDisciplineRule,
    DurabilityDisciplineRule,
    WalOrderingRule,
    SerialDisciplineRule,
    DtypeDisciplineRule,
    ExceptionDisciplineRule,
)
