"""tsulint rules: the project invariants this codebase actually relies on.

Generic linters check style; these rules check *correctness contracts* that
PRs 1-7 established and that only tests (or production incidents) would
otherwise enforce:

========  ==============================================================
TSU001    No blocking calls (``time.sleep``, synchronous socket /
          subprocess / sqlite3 / file I/O) inside ``async def`` bodies
          under ``repro/api/`` and ``repro/streams/``. One blocked event
          loop stalls every connection the server is carrying.
TSU002    No ``threading.Lock``/``RLock`` held across an ``await``. The
          awaited task may need the same lock on the same loop - the
          classic single-threaded deadlock - and even when it does not,
          the lock is held for an unbounded suspension.
TSU003    No raw reads of ``MmapStore`` mapped arrays (``.arrays()``,
          ``._read_maps``/``._readable`` internals) outside
          generation-validated scopes. A concurrent writer commit can
          tear such reads; callers must sample ``read_generation()``
          (seqlock discipline) or use ``read_windows_consistent``.
TSU004    Library code under ``src/repro/`` raises only
          ``TsubasaError`` subclasses (so the error-code taxonomy shared
          by the CLI, wire protocol, and remote client stays total), and
          every subclass declared in ``exceptions.py`` is registered in
          ``_ERROR_CODES`` with a unique code. Protocol dunders
          (``__getattr__`` -> AttributeError, ``__next__`` ->
          StopIteration, ...) are exempt.
TSU005    Every ``np.frombuffer`` over wire payloads under ``repro/api/``
          is accompanied by a read-only guard (``.setflags(write=False)``
          or ``.flags.writeable = False``) in the same function. Decoded
          frames are zero-copy views handed to callers; a writable view
          over a ``bytearray`` would let result mutation corrupt the
          receive buffer (and vice versa).
TSU006    No ``QuerySpec`` field drift: attribute access on spec-typed
          values in the wire layer must name real ``QuerySpec``
          attributes, and the ``_REQUIRED``/``_OPTIONAL`` per-op field
          tables in ``spec.py`` must reference real dataclass fields and
          real ops.
TSU007    No ``from repro.<module> import _private`` in ``src/repro/``.
          A leading underscore says "only this module relies on it"; a
          helper another module needs gets a public name, so a rename
          cannot silently break the importer.
========  ==============================================================

Suppress a finding with a justified trailing comment::

    time.sleep(0.1)  # tsulint: disable=TSU001 -- startup probe, pre-loop

CI runs with ``--require-reasons``, so a suppression without the
``-- reason`` tail is itself an error. Add new rules by subclassing
:class:`Rule` and appending to :data:`RULES`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tsulint.engine import (
    Diagnostic,
    FileContext,
    ProjectIndex,
    dotted_name,
    iter_async_functions,
    terminal_name,
    walk_without_functions,
)

__all__ = ["Rule", "RULES", "rule_by_code"]


class Rule:
    """Base class: per-file AST check, optionally path-scoped."""

    code: str = "TSU000"
    name: str = "base"
    description: str = ""

    def applies_to(self, path: str) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        return iter(())

    def check_project(
        self, index: ProjectIndex
    ) -> Iterator[Diagnostic]:
        return iter(())

    def diag(
        self, ctx_path: str, node: ast.AST, message: str
    ) -> Diagnostic:
        return Diagnostic(
            rule=self.code,
            path=ctx_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def _in_library(path: str) -> bool:
    return "src/repro/" in path or path.startswith("repro/")


class BlockingCallInAsync(Rule):
    """TSU001: blocking calls inside ``async def`` bodies stall the loop."""

    code = "TSU001"
    name = "blocking-call-in-async"
    description = (
        "no time.sleep / sync socket / subprocess / sqlite3 / file I/O "
        "inside async def bodies in repro.api and repro.streams"
    )

    #: Fully dotted call names that block the calling thread.
    BLOCKING_DOTTED = {
        "time.sleep",
        "sqlite3.connect",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "os.system",
        "os.popen",
        "os.wait",
        "os.waitpid",
        "socket.create_connection",
        "socket.getaddrinfo",
        "socket.gethostbyname",
        "socket.gethostbyaddr",
        "socket.getfqdn",
        "urllib.request.urlopen",
    }
    #: Method names that are synchronous file/DB I/O no matter the object.
    BLOCKING_METHODS = {
        "read_text",
        "write_text",
        "read_bytes",
        "write_bytes",
        "executescript",
    }
    #: Bare builtins that open synchronous file handles.
    BLOCKING_BUILTINS = {"open"}

    def applies_to(self, path: str) -> bool:
        return "repro/api/" in path or "repro/streams/" in path

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for func in iter_async_functions(ctx.tree):
            for node in walk_without_functions(func.body):
                if not isinstance(node, ast.Call):
                    continue
                dotted = dotted_name(node.func)
                name = terminal_name(node.func)
                blocked: str | None = None
                if dotted in self.BLOCKING_DOTTED:
                    blocked = dotted
                elif (
                    isinstance(node.func, ast.Name)
                    and node.func.id in self.BLOCKING_BUILTINS
                ):
                    blocked = node.func.id
                elif (
                    isinstance(node.func, ast.Attribute)
                    and name in self.BLOCKING_METHODS
                ):
                    blocked = f"{name}()"
                if blocked is not None:
                    yield self.diag(
                        ctx.path,
                        node,
                        f"blocking call {blocked!r} inside async def "
                        f"{func.name!r}; use the asyncio equivalent or "
                        f"run_in_executor",
                    )


def _is_lockish(node: ast.AST) -> bool:
    """Whether an expression looks like a ``threading`` lock object."""
    name = terminal_name(node)
    if name is None and isinstance(node, ast.Call):
        # with threading.Lock(): ... (constructed inline)
        name = terminal_name(node.func)
    if name is None:
        return False
    lowered = name.lower().lstrip("_")
    return (
        lowered in ("lock", "rlock", "mutex")
        or lowered.endswith("_lock")
        or lowered.endswith("lock") and name in ("Lock", "RLock")
    )


class LockAcrossAwait(Rule):
    """TSU002: a threading lock held across an ``await`` suspension."""

    code = "TSU002"
    name = "lock-across-await"
    description = (
        "threading.Lock/RLock must not be held across an await; "
        "the suspended task holds the lock for an unbounded time"
    )

    def applies_to(self, path: str) -> bool:
        return _in_library(path)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for func in iter_async_functions(ctx.tree):
            for node in walk_without_functions(func.body):
                if not isinstance(node, ast.With):
                    continue
                if not any(
                    _is_lockish(item.context_expr) for item in node.items
                ):
                    continue
                for inner in walk_without_functions(node.body):
                    if isinstance(inner, ast.Await):
                        held = next(
                            terminal_name(item.context_expr) or "lock"
                            for item in node.items
                            if _is_lockish(item.context_expr)
                        )
                        yield self.diag(
                            ctx.path,
                            node,
                            f"lock {held!r} is held across an await at "
                            f"line {inner.lineno}; release it before "
                            f"suspending (or use asyncio.Lock)",
                        )
                        break


class RawMmapRead(Rule):
    """TSU003: MmapStore mapped arrays read outside seqlock discipline."""

    code = "TSU003"
    name = "raw-mmap-read"
    description = (
        "MmapStore.arrays()/._read_maps reads outside mmap_store.py must "
        "sit in a scope that samples read_generation() or uses "
        "read_windows_consistent (torn-read protection)"
    )

    PRIVATE_MAPS = {"_read_maps", "_write_maps", "_readable", "_writable"}
    VALIDATORS = {"read_generation", "read_windows_consistent"}

    def applies_to(self, path: str) -> bool:
        return _in_library(path) and not path.endswith(
            "storage/mmap_store.py"
        )

    def _scope_validated(self, scope: ast.AST) -> bool:
        for node in ast.walk(scope):
            if isinstance(node, ast.Attribute) and node.attr in self.VALIDATORS:
                return True
            if isinstance(node, ast.Name) and node.id in self.VALIDATORS:
                return True
            if (
                isinstance(node, ast.FunctionDef)
                and node.name in self.VALIDATORS
            ):
                return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        # Walk top-level scopes (classes and functions); a raw read is fine
        # when its enclosing class or function also carries the seqlock
        # validation (read_generation / read_windows_consistent).
        scopes: list[tuple[ast.AST, ast.AST]] = []  # (node, enclosing scope)

        def visit(node: ast.AST, scope: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                child_scope = scope
                if isinstance(
                    child,
                    (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
                ):
                    child_scope = child if isinstance(child, ast.ClassDef) else (
                        scope if isinstance(scope, ast.ClassDef) else child
                    )
                    # Functions inside a class are judged by the class scope
                    # (the seqlock helper usually lives on the same class);
                    # module-level functions stand alone.
                scopes.append((child, child_scope))
                visit(child, child_scope)

        visit(ctx.tree, ctx.tree)
        validated_cache: dict[int, bool] = {}
        for node, scope in scopes:
            flagged: str | None = None
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "arrays"
                and not node.args
                and not node.keywords
            ):
                flagged = "arrays()"
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in self.PRIVATE_MAPS
            ):
                flagged = node.attr
            if flagged is None:
                continue
            key = id(scope)
            if key not in validated_cache:
                validated_cache[key] = self._scope_validated(scope)
            if not validated_cache[key]:
                yield self.diag(
                    ctx.path,
                    node,
                    f"raw mmap read {flagged!r} outside a generation-"
                    f"validated scope; sample read_generation() around the "
                    f"read or use read_windows_consistent()",
                )


#: Built-in exceptions legal in specific protocol dunders.
_DUNDER_ALLOWANCES = {
    "AttributeError": {"__getattr__", "__getattribute__", "__delattr__"},
    "StopIteration": {"__next__"},
    "StopAsyncIteration": {"__anext__"},
    "KeyError": {"__getitem__", "__delitem__", "pop", "__missing__"},
    "IndexError": {"__getitem__"},
}

#: Names that read as exception constructors when raised.
_EXCEPTIONISH_SUFFIXES = ("Error", "Exception", "Exit", "Interrupt", "Warning")


class ExceptionTaxonomy(Rule):
    """TSU004: one error taxonomy — raise TsubasaError subclasses only."""

    code = "TSU004"
    name = "exception-taxonomy"
    description = (
        "library code raises TsubasaError subclasses (stable error codes "
        "across CLI exit codes and wire envelopes); every subclass in "
        "exceptions.py is registered in _ERROR_CODES with a unique code"
    )

    def applies_to(self, path: str) -> bool:
        return _in_library(path)

    def _raised_class(self, exc: ast.expr) -> str | None:
        """The class name being raised, when statically resolvable."""
        node: ast.AST = exc
        if isinstance(node, ast.Call):
            node = node.func
        name = terminal_name(node)
        if name is None:
            return None
        if not name.lstrip("_")[:1].isupper():
            return None  # helper call like mark_retryable(...)
        return name

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        derived = set(ctx.index.tsubasa_subclasses())
        # Names imported from the taxonomy module count as members even
        # when exceptions.py itself is outside the linted file set.
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and (
                node.module or ""
            ).endswith("exceptions"):
                for alias in node.names:
                    derived.add(alias.asname or alias.name)
        # Map each raise to its innermost enclosing function name.
        func_stack: list[str] = []

        def visit(node: ast.AST) -> Iterator[Diagnostic]:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func_stack.append(node.name)
            if isinstance(node, ast.Raise) and node.exc is not None:
                name = self._raised_class(node.exc)
                if name is not None and name not in derived:
                    enclosing = func_stack[-1] if func_stack else "<module>"
                    allowed_in = _DUNDER_ALLOWANCES.get(name, set())
                    known_exceptionish = (
                        name.endswith(_EXCEPTIONISH_SUFFIXES)
                        or name
                        in (
                            "StopIteration",
                            "StopAsyncIteration",
                            "SystemExit",
                            "KeyboardInterrupt",
                        )
                        # Any project-defined class being raised is an
                        # exception class, whatever it is named.
                        or name in ctx.index.class_bases
                    )
                    if known_exceptionish and enclosing not in allowed_in:
                        yield self.diag(
                            ctx.path,
                            node,
                            f"raise of non-TsubasaError {name!r} in library "
                            f"code; use a TsubasaError subclass so the "
                            f"error-code taxonomy (exceptions.error_code_for) "
                            f"stays total",
                        )
            for child in ast.iter_child_nodes(node):
                yield from visit(child)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func_stack.pop()

        yield from visit(ctx.tree)

    def check_project(self, index: ProjectIndex) -> Iterator[Diagnostic]:
        taxonomy = index.taxonomy
        if not taxonomy.path:
            return
        # Every TsubasaError subclass declared in exceptions.py must be
        # registered, and codes must be unique.
        derived = index.tsubasa_subclasses()
        seen_codes: dict[int, str] = {}
        for name, code in taxonomy.codes.items():
            line = taxonomy.code_lines.get(name, 1)
            if code in seen_codes:
                yield Diagnostic(
                    rule=self.code,
                    path=taxonomy.path,
                    line=line,
                    col=0,
                    message=(
                        f"error code {code} assigned to both "
                        f"{seen_codes[code]!r} and {name!r}; codes must be "
                        f"unique (they double as CLI exit codes)"
                    ),
                )
            else:
                seen_codes[code] = name
        for name, line in taxonomy.declared.items():
            if name not in derived:
                continue  # unrelated helper class
            if name not in taxonomy.codes:
                yield Diagnostic(
                    rule=self.code,
                    path=taxonomy.path,
                    line=line,
                    col=0,
                    message=(
                        f"TsubasaError subclass {name!r} is not registered "
                        f"in _ERROR_CODES; every subclass needs a stable "
                        f"failure code"
                    ),
                )


class FrombufferGuard(Rule):
    """TSU005: zero-copy wire decodes must be frozen read-only."""

    code = "TSU005"
    name = "frombuffer-readonly"
    description = (
        "np.frombuffer over wire payloads in repro.api must pair with a "
        "read-only guard (.setflags(write=False) / .flags.writeable = "
        "False) in the same function"
    )

    def applies_to(self, path: str) -> bool:
        return "repro/api/" in path

    def _has_guard(self, func: ast.AST) -> bool:
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "setflags"
            ):
                for kw in node.keywords:
                    if kw.arg == "write" and isinstance(
                        kw.value, ast.Constant
                    ):
                        if kw.value.value is False:
                            return True
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "writeable"
                        and isinstance(target.value, ast.Attribute)
                        and target.value.attr == "flags"
                        and isinstance(node.value, ast.Constant)
                        and node.value.value is False
                    ):
                        return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for func in ast.walk(ctx.tree):
            if not isinstance(
                func, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            calls = [
                node
                for node in walk_without_functions(func.body)
                if isinstance(node, ast.Call)
                and terminal_name(node.func) == "frombuffer"
            ]
            if calls and not self._has_guard(func):
                for call in calls:
                    yield self.diag(
                        ctx.path,
                        call,
                        f"np.frombuffer in {func.name!r} without a read-only "
                        f"guard; call .setflags(write=False) on the view "
                        f"before handing it out",
                    )


class SpecFieldDrift(Rule):
    """TSU006: wire layer and spec dataclasses must agree on field names."""

    code = "TSU006"
    name = "spec-field-drift"
    description = (
        "attribute access on QuerySpec values in repro.api must name real "
        "spec attributes; _REQUIRED/_OPTIONAL tables must reference real "
        "dataclass fields and ops"
    )

    #: Expression shapes treated as QuerySpec-typed: a local named `spec`,
    #: `self.spec`, `request.spec`, `result.spec`, `self._spec`.
    SPEC_NAMES = {"spec", "_spec"}

    def applies_to(self, path: str) -> bool:
        return "src/repro/api/" in path

    def _is_spec_expr(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.SPEC_NAMES
        if isinstance(node, ast.Attribute):
            return node.attr in self.SPEC_NAMES
        return False

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        spec = ctx.index.spec
        surface = spec.surface.get("QuerySpec")
        if not surface:
            return
        allowed = (
            surface
            | {"windows"}  # property
            | {name for name in dir(object)}
        )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if not self._is_spec_expr(node.value):
                continue
            if node.attr.startswith("__") or node.attr in allowed:
                continue
            yield self.diag(
                ctx.path,
                node,
                f"QuerySpec has no attribute {node.attr!r}; the wire layer "
                f"drifted from the spec dataclass (see api/spec.py)",
            )

    def check_project(self, index: ProjectIndex) -> Iterator[Diagnostic]:
        spec = index.spec
        if not spec.path:
            return
        fields = spec.fields.get("QuerySpec", set())
        if not fields:
            return
        for name, op, line in spec.op_fields:
            if name not in fields:
                yield Diagnostic(
                    rule=self.code,
                    path=spec.path,
                    line=line,
                    col=0,
                    message=(
                        f"op table for {op!r} names {name!r}, which is not "
                        f"a QuerySpec dataclass field"
                    ),
                )
        for op, line in spec.op_keys:
            if spec.ops and op not in spec.ops:
                yield Diagnostic(
                    rule=self.code,
                    path=spec.path,
                    line=line,
                    col=0,
                    message=f"op table key {op!r} is not in OPS",
                )


class PrivateImport(Rule):
    """TSU007: a module's private names stay inside the module."""

    code = "TSU007"
    name = "private-import"
    description = (
        "no `from repro.<module> import _private` in src/repro; a helper "
        "another module needs gets a public name"
    )

    def applies_to(self, path: str) -> bool:
        return _in_library(path)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "repro":
                continue
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith(
                    "__"
                ):
                    yield self.diag(
                        ctx.path,
                        node,
                        f"private name {alias.name!r} imported from "
                        f"{'.' * node.level}{module}; give it a public name "
                        f"in the module that owns it",
                    )


#: Registered rules, in code order. The CLI and the test suite iterate this.
RULES: tuple[Rule, ...] = (
    BlockingCallInAsync(),
    LockAcrossAwait(),
    RawMmapRead(),
    ExceptionTaxonomy(),
    FrombufferGuard(),
    SpecFieldDrift(),
    PrivateImport(),
)


def rule_by_code(code: str) -> Rule:
    for rule in RULES:
        if rule.code == code:
            return rule
    raise KeyError(code)
