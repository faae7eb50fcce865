"""Source loading and the whole-program symbol table.

:meth:`Project.load` is the engine's one walk and one parse: it reads
every ``.py`` file under the given paths, classifies its zone, and keeps
one :class:`ModuleInfo` per file (``Project.files``, keyed by display
path).  Each ``ModuleInfo`` is the :class:`~repro.checks.registry.FileContext`
the per-file rules see.

The whole-program analyses need to follow a value (a dtype, a lock, an
RNG stream) *across* module boundaries, so the project also derives
dotted module names from ``__init__.py`` chains, resolves import
bindings (including relative imports and package re-exports), and
indexes every class and function by fully-qualified name.  Two files
outside any package with the same stem (``benchmarks/common.py`` and
``perfbench/common.py``) share one dotted name; both stay in ``files``,
and name resolution sees the later one.

Name resolution is static and intentionally modest: dotted attribute
chains through import bindings, local definitions, ``self`` attributes
whose class is known, and one level of constructor/annotation-derived
attribute types.  ``getattr``-style dynamic dispatch is out of scope —
see DESIGN.md for the soundness contract.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

from .registry import (
    COMPILE_ZONE,
    HOT_ZONE,
    OTHER_ZONE,
    SOLVER_ZONE,
    TEST_ZONE,
    FileContext,
)
from .rules._util import LOCK_FACTORIES, dotted_name
from .suppress import Suppressions, parse_suppressions

__all__ = [
    "Project", "ModuleInfo", "ClassInfo", "FunctionInfo",
    "classify_zone", "iter_python_files",
]

_HOT_PARTS = {"nn", "serve", "tensor"}
_SOLVER_PARTS = {"ns", "ns3d", "lbm"}
_SKIP_DIRS = {"__pycache__", ".git", "_cache", "results", ".pytest_cache"}
_EVENT_FACTORIES = {"Event", "Semaphore", "BoundedSemaphore", "Barrier", "Queue"}
_LOCAL_FACTORIES = {"local"}


def classify_zone(relpath: str) -> str:
    """Map a posix-style path onto the rule zones (hot/solver/test/other)."""
    parts = PurePosixPath(relpath).parts
    name = parts[-1] if parts else ""
    if "tests" in parts or name.startswith("test_") or name == "conftest.py":
        return TEST_ZONE
    if "compile" in parts:
        return COMPILE_ZONE
    if _HOT_PARTS & set(parts):
        return HOT_ZONE
    if _SOLVER_PARTS & set(parts):
        return SOLVER_ZONE
    return OTHER_ZONE


def iter_python_files(paths) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    out: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not (_SKIP_DIRS & set(candidate.parts)):
                    out.add(candidate)
        elif path.is_file():
            out.add(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    return sorted(out)


@dataclass
class FunctionInfo:
    """One function or method, addressable by fully-qualified name."""

    qual: str                 # e.g. repro.serve.registry.ModelRegistry.get
    node: ast.FunctionDef | ast.AsyncFunctionDef
    module: "ModuleInfo"
    class_name: str | None    # enclosing class simple name, if a method

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def params(self) -> list[str]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args]
        if args.vararg:
            names.append(args.vararg.arg)
        names += [a.arg for a in args.kwonlyargs]
        if args.kwarg:
            names.append(args.kwarg.arg)
        return names


@dataclass
class ClassInfo:
    """One class: methods, lock/event/thread-local attribute kinds, attr types."""

    qual: str
    node: ast.ClassDef
    module: "ModuleInfo"
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    lock_attrs: set[str] = field(default_factory=set)
    event_attrs: set[str] = field(default_factory=set)
    local_attrs: set[str] = field(default_factory=set)
    # self.<attr> -> class qualname, from __init__ annotations/constructor calls
    attr_types: dict[str, str] = field(default_factory=dict)
    # self.<attr> -> callable qualnames bound at construction sites
    attr_callables: dict[str, set[str]] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.node.name

    def base_names(self) -> list[str]:
        out = []
        for base in self.node.bases:
            name = dotted_name(base)
            if name:
                out.append(name)
        return out


@dataclass
class ModuleInfo(FileContext):
    """One parsed source file with its import-binding table."""

    name: str                 # dotted module name, e.g. repro.serve.registry
    imports: dict[str, str] = field(default_factory=dict)   # local name -> qualname
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)  # module-level only
    # module-level instance globals: name -> class qualname
    global_types: dict[str, str] = field(default_factory=dict)
    _suppressions: Suppressions | None = None

    @property
    def suppressions(self) -> Suppressions:
        if self._suppressions is None:
            self._suppressions = parse_suppressions(self.lines)
        return self._suppressions


def _module_name_for(path: Path) -> str | None:
    """Dotted module name from the ``__init__.py`` package chain above it."""
    path = path.resolve()
    parts = [path.stem] if path.name != "__init__.py" else []
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.append(parent.name)
        parent = parent.parent
    if not parts:
        return None
    return ".".join(reversed(parts))


class Project:
    """Parsed modules + global symbol index + canonical name resolution."""

    def __init__(self) -> None:
        self.files: dict[str, ModuleInfo] = {}             # display path -> module
        self.modules: dict[str, ModuleInfo] = {}           # dotted name -> module
        self.functions: dict[str, FunctionInfo] = {}       # qualname -> function
        self.classes: dict[str, ClassInfo] = {}            # qualname -> class
        self.errors: list[str] = []                        # unparseable files

    # -- construction --------------------------------------------------
    @staticmethod
    def load(paths, root: str | Path | None = None) -> "Project":
        """Parse every ``.py`` under ``paths`` into one project.

        A file that does not parse is reported in ``errors`` and skipped.
        """
        root = Path(root) if root is not None else Path.cwd()
        project = Project()
        for path in iter_python_files(paths):
            try:
                rel = path.resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                rel = path.as_posix()
            mod_name = _module_name_for(path)
            if mod_name is None:
                mod_name = path.stem
            try:
                source = path.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=str(path))
            except (SyntaxError, UnicodeDecodeError) as exc:
                project.errors.append(f"{rel}: {exc}")
                continue
            info = ModuleInfo(
                name=mod_name, path=rel, tree=tree,
                lines=source.splitlines(), zone=classify_zone(rel),
            )
            project.files[rel] = info
            project.modules[mod_name] = info
        for info in project.modules.values():
            project._index_module(info)
        for info in project.modules.values():
            project._infer_attr_types(info)
        return project

    def _index_module(self, info: ModuleInfo) -> None:
        for node in info.tree.body:
            self._index_stmt(info, node)

    def _index_stmt(self, info: ModuleInfo, node: ast.stmt) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                info.imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = self._resolve_relative(info, node)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                info.imports[local] = f"{base}.{alias.name}" if base else alias.name
        elif isinstance(node, ast.ClassDef):
            qual = f"{info.name}.{node.name}"
            cls = ClassInfo(qual=qual, node=node, module=info)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fn = FunctionInfo(
                        qual=f"{qual}.{item.name}", node=item,
                        module=info, class_name=node.name,
                    )
                    cls.methods[item.name] = fn
                    self.functions[fn.qual] = fn
            info.classes[node.name] = cls
            self.classes[qual] = cls
            self._scan_attr_kinds(cls)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = FunctionInfo(
                qual=f"{info.name}.{node.name}", node=node,
                module=info, class_name=None,
            )
            info.functions[node.name] = fn
            self.functions[fn.qual] = fn
        elif isinstance(node, (ast.If, ast.Try)):
            # TYPE_CHECKING guards, try/except import fallbacks.
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    self._index_stmt(info, child)

    @staticmethod
    def _resolve_relative(info: ModuleInfo, node: ast.ImportFrom) -> str:
        if node.level == 0:
            return node.module or ""
        parts = info.name.split(".")
        # A package's __init__ has name == package; a module drops its stem.
        anchor = parts[: len(parts) - node.level] if node.level <= len(parts) else []
        base = ".".join(anchor)
        if node.module:
            base = f"{base}.{node.module}" if base else node.module
        return base

    def _scan_attr_kinds(self, cls: ClassInfo) -> None:
        """Classify ``self.<attr>`` assignments: locks, events, thread-locals."""
        for node in ast.walk(cls.node):
            if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
                continue
            name = dotted_name(node.value.func)
            if not name:
                continue
            tail = name.split(".")[-1]
            for target in node.targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    if tail in LOCK_FACTORIES:
                        cls.lock_attrs.add(target.attr)
                    elif tail in _EVENT_FACTORIES:
                        cls.event_attrs.add(target.attr)
                    elif tail in _LOCAL_FACTORIES:
                        cls.local_attrs.add(target.attr)

    # -- canonicalisation ----------------------------------------------
    def canonical(self, qual: str | None, _depth: int = 0) -> str | None:
        """Follow re-export chains (``from .registry import X``) to the defining name."""
        if qual is None or _depth > 8:
            return qual
        if qual in self.functions or qual in self.classes:
            return qual
        head, _, tail = qual.rpartition(".")
        if not head:
            return qual
        # qual = <module>.<name>: follow the module's import binding for name.
        module = self.modules.get(head)
        if module is not None and tail in module.imports:
            return self.canonical(module.imports[tail], _depth + 1)
        # qual = <something-canonicalisable>.<attr>
        base = self.canonical(head, _depth + 1)
        if base != head:
            return self.canonical(f"{base}.{tail}", _depth + 1)
        return qual

    def resolve_name(self, module: ModuleInfo, name: str) -> str | None:
        """A bare/dotted name used inside ``module`` -> canonical qualname."""
        head, _, rest = name.partition(".")
        if head in module.classes:
            target = module.classes[head].qual
        elif head in module.functions:
            target = module.functions[head].qual
        elif head in module.imports:
            target = module.imports[head]
        elif head in module.global_types:
            # module-level instance: resolve attr as a method of its class
            target = module.global_types[head]
        else:
            return None
        qual = f"{target}.{rest}" if rest else target
        return self.canonical(qual)

    def resolve_call(self, module: ModuleInfo,
                     func: ast.expr,
                     cls: ClassInfo | None = None) -> str | None:
        """Resolve a call's target expression to a canonical qualname.

        Handles dotted names through imports, ``self.method``,
        ``self.<attr>.method`` via inferred attribute types, and
        ``ClassName(...)`` (returned as the class qualname; callers map
        it to ``__init__``).
        """
        name = dotted_name(func)
        if name is None:
            return None
        if cls is not None and name.startswith("self."):
            rest = name[5:]
            head, _, tail = rest.partition(".")
            if not tail and head in cls.methods:
                return cls.methods[head].qual
            if tail:
                attr_cls = self.classes.get(self.canonical(cls.attr_types.get(head)) or "")
                if attr_cls is not None:
                    resolved = self._method_on(attr_cls, tail)
                    if resolved:
                        return resolved
            return None
        return self.resolve_name(module, name)

    def _method_on(self, cls: ClassInfo, dotted_tail: str) -> str | None:
        head, _, rest = dotted_tail.partition(".")
        if rest:
            return None
        if head in cls.methods:
            return cls.methods[head].qual
        return None

    # -- attribute/global typing ---------------------------------------
    def _annotation_class(self, module: ModuleInfo, node: ast.expr | None) -> str | None:
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.BinOp):  # Optional via "X | None"
            for side in (node.left, node.right):
                got = self._annotation_class(module, side)
                if got:
                    return got
            return None
        if isinstance(node, ast.Subscript):
            return None
        name = dotted_name(node)
        if name is None:
            return None
        qual = self.resolve_name(module, name)
        return qual if qual in self.classes else None

    def _infer_attr_types(self, info: ModuleInfo) -> None:
        # module-level instance globals: NAME = ClassName(...)
        for node in info.tree.body:
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                    and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)):
                qual = self.resolve_call(info, node.value.func)
                if qual in self.classes:
                    info.global_types[node.targets[0].id] = qual
        for cls in info.classes.values():
            init = cls.methods.get("__init__")
            if init is None:
                continue
            # parameter name -> annotated class qualname
            param_types: dict[str, str] = {}
            args = init.node.args
            for a in args.posonlyargs + args.args + args.kwonlyargs:
                got = self._annotation_class(info, a.annotation)
                if got:
                    param_types[a.arg] = got
            for stmt in ast.walk(init.node):
                if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                    continue
                target = stmt.targets[0]
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                value = stmt.value
                if isinstance(value, ast.Name) and value.id in param_types:
                    cls.attr_types[target.attr] = param_types[value.id]
                elif isinstance(value, ast.Call):
                    qual = self.resolve_call(info, value.func, cls)
                    if qual in self.classes:
                        cls.attr_types[target.attr] = qual
                    else:
                        # factory call: follow the return annotation
                        callee = self.function_for_qual(qual)
                        if callee is not None and callee.name != "__init__":
                            got = self._annotation_class(
                                callee.module, callee.node.returns)
                            if got:
                                cls.attr_types[target.attr] = got

    # -- iteration helpers ---------------------------------------------
    def iter_functions(self):
        return self.functions.values()

    def function_for_qual(self, qual: str | None) -> FunctionInfo | None:
        if qual is None:
            return None
        qual = self.canonical(qual)
        fn = self.functions.get(qual)
        if fn is not None:
            return fn
        cls = self.classes.get(qual)
        if cls is not None:
            return cls.methods.get("__init__")
        return None

    def class_of(self, fn: FunctionInfo) -> ClassInfo | None:
        if fn.class_name is None:
            return None
        return fn.module.classes.get(fn.class_name)
