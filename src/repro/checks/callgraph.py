"""Project-wide call graph with concurrency entry points and lock context.

Edges connect fully-qualified function names.  Each edge remembers
whether its call site sits lexically inside a ``with self.<lock>:``
block of the caller — the race analysis uses that to credit
interprocedural lock domination (a private method written without a
lock is fine when *every* concurrent path into it already holds the
owning lock).

Concurrency entry points are collected structurally:

* ``threading.Thread(target=f)`` / ``Thread(target=self.m)``;
* ``executor.submit(f, ...)`` and ``pool.map(f, ...)``;
* ``do_GET``/``do_POST``/``handle``-style methods of HTTP handler
  classes (any class whose base name ends in ``HTTPRequestHandler``);
* callables bound into another class at a construction site
  (``WorkerPool(queue, self._execute)``) are followed when the pool
  later invokes ``self.execute(...)``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .project import ClassInfo, FunctionInfo, ModuleInfo, Project
from .rules._util import dotted_name

__all__ = ["CallGraph", "build_callgraph", "CallEdge"]

_SPAWNER_CALLS = {"Thread"}
_SUBMIT_METHODS = {"submit", "map", "apply_async", "map_async", "imap", "imap_unordered"}
_HANDLER_METHOD_PREFIXES = ("do_",)
_HANDLER_METHODS = {"handle", "handle_one_request"}


@dataclass(frozen=True)
class CallEdge:
    caller: str
    callee: str
    line: int
    locked: bool        # call site lexically under a with self.<lock> of the caller
    same_class: bool    # caller and callee are methods of the same class


@dataclass
class CallGraph:
    edges: list[CallEdge] = field(default_factory=list)
    out: dict[str, set[str]] = field(default_factory=dict)
    into: dict[str, list[CallEdge]] = field(default_factory=dict)
    spawned: set[str] = field(default_factory=set)   # thread/process targets
    entries: set[str] = field(default_factory=set)   # spawned + handler methods

    def add(self, edge: CallEdge) -> None:
        self.edges.append(edge)
        self.out.setdefault(edge.caller, set()).add(edge.callee)
        self.into.setdefault(edge.callee, []).append(edge)

    def reachable(self, roots) -> set[str]:
        seen: set[str] = set()
        stack = list(roots)
        while stack:
            qual = stack.pop()
            if qual in seen:
                continue
            seen.add(qual)
            stack.extend(self.out.get(qual, ()))
        return seen

    def concurrent(self) -> set[str]:
        """Everything reachable from a concurrency entry point."""
        return self.reachable(self.entries)

    def to_dot(self, concurrent: set[str] | None = None) -> str:
        """Graphviz dot rendering (concurrency-reachable nodes shaded)."""
        concurrent = concurrent if concurrent is not None else self.concurrent()
        nodes = sorted({e.caller for e in self.edges} | {e.callee for e in self.edges}
                       | self.entries)
        lines = ["digraph callgraph {", '  rankdir="LR";', '  node [shape=box, fontsize=9];']
        for node in nodes:
            attrs = []
            if node in self.entries:
                attrs.append('color="red"')
            if node in concurrent:
                attrs.append('style="filled"')
                attrs.append('fillcolor="lightyellow"')
            lines.append(f'  "{node}"' + (f" [{', '.join(attrs)}]" if attrs else "") + ";")
        seen_pairs = set()
        for edge in self.edges:
            pair = (edge.caller, edge.callee, edge.locked)
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            style = ' [color="blue", label="locked"]' if edge.locked else ""
            lines.append(f'  "{edge.caller}" -> "{edge.callee}"{style};')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def stats(self) -> dict:
        return {
            "nodes": len({e.caller for e in self.edges} | {e.callee for e in self.edges}),
            "edges": len(self.edges),
            "entries": len(self.entries),
            "concurrent": len(self.concurrent()),
        }


def _is_handler_class(cls: ClassInfo) -> bool:
    return any(base.split(".")[-1].endswith("HTTPRequestHandler")
               for base in cls.base_names())


def _callable_ref(project: Project, module: ModuleInfo, cls: ClassInfo | None,
                  node: ast.expr) -> str | None:
    """Resolve an expression used as a *value* to a function qualname."""
    name = dotted_name(node)
    if name is None:
        return None
    if cls is not None and name.startswith("self."):
        rest = name[5:]
        if "." not in rest and rest in cls.methods:
            return cls.methods[rest].qual
        return None
    qual = project.resolve_name(module, name)
    if qual is not None and project.function_for_qual(qual) is not None:
        return qual
    return None


def _local_instance_types(project: Project, fn: FunctionInfo) -> dict[str, str]:
    """Local variables assigned from ``ClassName(...)`` within ``fn``."""
    out: dict[str, str] = {}
    cls = project.class_of(fn)
    for node in ast.walk(fn.node):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)):
            qual = project.resolve_call(fn.module, node.value.func, cls)
            if qual in project.classes:
                out[node.targets[0].id] = qual
    # annotated parameters contribute too
    args = fn.node.args
    for a in args.posonlyargs + args.args + args.kwonlyargs:
        got = project._annotation_class(fn.module, a.annotation)
        if got:
            out.setdefault(a.arg, got)
    return out


def _bind_constructor_callables(project: Project) -> None:
    """Record callables passed into constructors onto the target class.

    ``WorkerPool(queue, self._execute)`` + ``self.execute = execute`` in
    ``WorkerPool.__init__`` teaches the graph that ``self.execute(...)``
    inside WorkerPool methods may call ``InferenceService._execute``.
    """
    for fn in list(project.iter_functions()):
        cls = project.class_of(fn)
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            qual = project.resolve_call(fn.module, node.func, cls)
            target_cls = project.classes.get(project.canonical(qual) or "")
            if target_cls is None:
                continue
            init = target_cls.methods.get("__init__")
            if init is None:
                continue
            params = [p for p in init.params if p != "self"]
            bound: dict[str, str] = {}
            for i, arg in enumerate(node.args):
                ref = _callable_ref(project, fn.module, cls, arg)
                if ref and i < len(params):
                    bound[params[i]] = ref
            for kw in node.keywords:
                ref = _callable_ref(project, fn.module, cls, kw.value)
                if ref and kw.arg:
                    bound[kw.arg] = ref
            if not bound:
                continue
            # map parameter -> stored attr via __init__ "self.x = param"
            for stmt in ast.walk(init.node):
                if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Attribute)
                        and isinstance(stmt.targets[0].value, ast.Name)
                        and stmt.targets[0].value.id == "self"
                        and isinstance(stmt.value, ast.Name)
                        and stmt.value.id in bound):
                    target_cls.attr_callables.setdefault(
                        stmt.targets[0].attr, set()
                    ).add(bound[stmt.value.id])


def _lock_context(item: ast.withitem, cls: ClassInfo | None) -> bool:
    expr = item.context_expr
    if isinstance(expr, ast.Call):
        expr = expr.func
    name = dotted_name(expr)
    if name is None or not name.startswith("self."):
        return False
    attr = name[5:].split(".")[0]
    if cls is not None and attr in cls.lock_attrs:
        return True
    return "lock" in attr.lower() or "cond" in attr.lower()


def _walk_calls(fn: FunctionInfo, cls: ClassInfo | None):
    """Yield ``(call_node, locked)`` with lexical lock context tracked."""

    def visit(node: ast.AST, locked: bool):
        if isinstance(node, ast.With):
            held = locked or any(_lock_context(item, cls) for item in node.items)
            for item in node.items:
                if isinstance(item.context_expr, ast.Call):
                    yield item.context_expr, locked
            for child in node.body:
                yield from visit(child, held)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # nested callables execute in an unknown context
        if isinstance(node, ast.Call):
            yield node, locked
        for child in ast.iter_child_nodes(node):
            yield from visit(child, locked)

    for stmt in fn.node.body:
        yield from visit(stmt, False)


def build_callgraph(project: Project) -> CallGraph:
    graph = CallGraph()
    _bind_constructor_callables(project)

    for fn in project.iter_functions():
        cls = project.class_of(fn)
        local_types = _local_instance_types(project, fn)
        if cls is not None and (fn.name in _HANDLER_METHODS
                                or fn.name.startswith(_HANDLER_METHOD_PREFIXES)):
            if _is_handler_class(cls):
                graph.entries.add(fn.qual)

        for call, locked in _walk_calls(fn, cls):
            callee_qual = project.resolve_call(fn.module, call.func, cls)
            callee_qual = project.canonical(callee_qual)
            name = dotted_name(call.func) or ""
            tail = name.split(".")[-1]

            # -- spawn sites -------------------------------------------
            if tail in _SPAWNER_CALLS:
                for kw in call.keywords:
                    if kw.arg == "target":
                        ref = _callable_ref(project, fn.module, cls, kw.value)
                        if ref:
                            graph.spawned.add(ref)
                            graph.entries.add(ref)
                            graph.add(CallEdge(fn.qual, ref, call.lineno, locked, False))
            elif tail in _SUBMIT_METHODS and call.args:
                ref = _callable_ref(project, fn.module, cls, call.args[0])
                if ref:
                    graph.spawned.add(ref)
                    graph.entries.add(ref)
                    graph.add(CallEdge(fn.qual, ref, call.lineno, locked, False))

            # -- callable-valued attributes: self.execute(...) ---------
            if (cls is not None and isinstance(call.func, ast.Attribute)
                    and isinstance(call.func.value, ast.Name)
                    and call.func.value.id == "self"
                    and call.func.attr in cls.attr_callables):
                for ref in cls.attr_callables[call.func.attr]:
                    graph.add(CallEdge(fn.qual, ref, call.lineno, locked, False))
                continue

            # -- instance method calls through local var types ---------
            if callee_qual is None and isinstance(call.func, ast.Attribute):
                base = dotted_name(call.func.value)
                if base and base in local_types:
                    target_cls = project.classes.get(local_types[base])
                    if target_cls is not None and call.func.attr in target_cls.methods:
                        callee_qual = target_cls.methods[call.func.attr].qual

            if callee_qual is None:
                continue
            if callee_qual in project.classes:
                init = project.classes[callee_qual].methods.get("__init__")
                if init is None:
                    continue
                callee_qual = init.qual
            if callee_qual not in project.functions:
                continue
            callee_fn = project.functions[callee_qual]
            same = (cls is not None and callee_fn.class_name == cls.name
                    and callee_fn.module is fn.module)
            graph.add(CallEdge(fn.qual, callee_qual, call.lineno, locked, same))

    return graph
