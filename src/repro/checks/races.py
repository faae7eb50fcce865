"""RPR103/RPR104 — lock-aware shared-state race detection.

Per-file RPR002 can only see a lexical ``with self._lock`` inside one
serve module.  This analysis is whole-program: the call graph tells us
which functions actually run on worker threads (anything reachable from
a ``Thread(target=...)`` spawn, an executor ``submit``/``map``, or an
HTTP handler method), and its lock-annotated edges let a helper that is
*always* entered with the owning lock held pass without its own ``with``
block.

A class is **concurrency-shared** when one of its methods is itself a
spawn target (its instances straddle the creating thread and the new
one), when a module-global instance of it exists and its methods are
concurrency-reachable (the compile plan cache), or when it owns a lock
and is used from the reachable set — the lock declares the sharing
contract.  Merely having methods *called* from worker threads does not
qualify: per-request objects (solvers, tensors, plan builders) are
thread-confined even though their classes run on workers.  For each
shared class we collect the attributes its concurrency-reachable
methods touch; then:

* **RPR103** — a write (assignment, augmented assignment, or a mutating
  container-method call) to such an attribute that is neither lexically
  inside a ``with self.<lock>`` nor performed in a method whose every
  call edge is lock-held.  Writes from *non*-reachable methods count
  too: a main-thread setter racing worker-thread readers is still a
  race.
* **RPR104** — a torn snapshot: a method reads two or more attributes
  whose writes are lock-guarded elsewhere in the class, without taking
  the lock itself, so it can observe mid-update state (count advanced,
  total not yet).

``__init__``-family methods, lock/event/thread-local attributes, and
lock-dominated helpers are exempt.
"""

from __future__ import annotations

import ast

from .findings import Finding
from .callgraph import CallGraph, _lock_context
from .project import ClassInfo, FunctionInfo, Project
from .rules._util import EXEMPT_METHODS, MUTATORS, dotted_name

__all__ = ["RaceAnalysis"]


def _walk_attr_access(fn: FunctionInfo, cls: ClassInfo | None):
    """Yield ``(base, attr, node, locked, is_write)`` for attribute accesses.

    ``base`` is the dotted receiver ("self" or a global instance name);
    nested function/lambda bodies are skipped (unknown execution
    context), and lexical ``with self.<lock>`` regions set ``locked``.
    """

    def visit(node: ast.AST, locked: bool):
        if isinstance(node, ast.With):
            held = locked or any(_lock_context(item, cls) for item in node.items)
            for item in node.items:
                yield from visit(item.context_expr, locked)
            for child in node.body:
                yield from visit(child, held)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Attribute):
                    base = dotted_name(target.value)
                    if base:
                        yield base, target.attr, target, locked, True
                else:
                    yield from visit(target, locked)
            value = getattr(node, "value", None)
            if value is not None:
                yield from visit(value, locked)
            if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                # += also reads the attribute; already yielded as write.
                pass
            return
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS
                and isinstance(node.func.value, ast.Attribute)):
            base = dotted_name(node.func.value.value)
            if base:
                yield base, node.func.value.attr, node, locked, True
            for child in list(node.args) + [kw.value for kw in node.keywords]:
                yield from visit(child, locked)
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            base = dotted_name(node.value)
            if base:
                yield base, node.attr, node, locked, False
            yield from visit(node.value, locked)
            return
        for child in ast.iter_child_nodes(node):
            yield from visit(child, locked)

    for stmt in fn.node.body:
        yield from visit(stmt, False)


class RaceAnalysis:
    def __init__(self, project: Project, graph: CallGraph):
        self.project = project
        self.graph = graph
        self.findings: list[Finding] = []

    # -- helpers -------------------------------------------------------
    def _special_attrs(self, cls: ClassInfo) -> set[str]:
        return cls.lock_attrs | cls.event_attrs | cls.local_attrs

    def _global_class(self, fn: FunctionInfo, base: str) -> str | None:
        """Class qualname when ``base`` names a module-global instance."""
        if "." in base or base == "self":
            return None
        qual = fn.module.global_types.get(base)
        if qual is None and base in fn.module.imports:
            imported = self.project.canonical(fn.module.imports[base])
            head, _, tail = (imported or "").rpartition(".")
            mod = self.project.modules.get(head)
            if mod is not None:
                qual = mod.global_types.get(tail)
        return self.project.canonical(qual) if qual else None

    # -- analysis ------------------------------------------------------
    def run(self) -> list[Finding]:
        concurrent = self.graph.concurrent()

        # Methods whose every call edge holds the owning lock (and that
        # are not entry points themselves) inherit the lock context.
        dominated = {
            qual for qual, edges in self.graph.into.items()
            if edges and all(e.locked for e in edges)
            and qual not in self.graph.entries
        }

        # Which classes have instances that genuinely straddle threads?
        has_global = set()
        for module in self.project.modules.values():
            for qual in module.global_types.values():
                canon = self.project.canonical(qual)
                if canon:
                    has_global.add(canon)
        shared_classes: set[str] = set()
        for cls in self.project.classes.values():
            method_quals = {m.qual for m in cls.methods.values()}
            if method_quals & self.graph.entries:
                shared_classes.add(cls.qual)        # spawn target / handler
            elif method_quals & concurrent and (
                    cls.qual in has_global or cls.lock_attrs):
                shared_classes.add(cls.qual)        # shared singleton / lock owner

        # Pass 1: which attrs of shared classes are touched from the
        # concurrency-reachable set, and by whom.
        shared_attrs: dict[str, set[str]] = {}      # class qual -> attrs
        accessors: dict[tuple[str, str], set[str]] = {}  # (cls, attr) -> methods
        for fn in self.project.iter_functions():
            if fn.qual not in concurrent:
                continue
            cls = self.project.class_of(fn)
            for base, attr, _node, _locked, _w in _walk_attr_access(fn, cls):
                if base == "self" and cls is not None:
                    owner = cls.qual
                elif (owner := self._global_class(fn, base)) is None:
                    continue
                if owner not in shared_classes:
                    continue
                shared_attrs.setdefault(owner, set()).add(attr)
                accessors.setdefault((owner, attr), set()).add(fn.qual)

        # Guarded attrs per class: written under a lexical lock somewhere
        # (or from a lock-dominated method) — the lock "owns" them.
        guarded: dict[str, set[str]] = {}
        for fn in self.project.iter_functions():
            cls = self.project.class_of(fn)
            if cls is None or not cls.lock_attrs:
                continue
            for base, attr, _node, locked, is_write in _walk_attr_access(fn, cls):
                if base != "self" or not is_write:
                    continue
                if locked or fn.qual in dominated:
                    guarded.setdefault(cls.qual, set()).add(attr)

        # Pass 2: findings.
        for fn in self.project.iter_functions():
            cls = self.project.class_of(fn)
            if fn.name in EXEMPT_METHODS:
                continue
            fn_dominated = fn.qual in dominated
            torn_reads: dict[str, ast.AST] = {}
            for base, attr, node, locked, is_write in _walk_attr_access(fn, cls):
                if base == "self":
                    if cls is None:
                        continue
                    owner, owner_cls = cls.qual, cls
                else:
                    owner = self._global_class(fn, base)
                    if owner is None:
                        continue
                    owner_cls = self.project.classes.get(owner)
                if owner_cls is None or attr in self._special_attrs(owner_cls):
                    continue
                if locked or (base == "self" and fn_dominated):
                    continue
                if is_write and attr in shared_attrs.get(owner, ()):  # RPR103
                    readers = sorted(accessors.get((owner, attr), ()) - {fn.qual})
                    shown = ", ".join(r.split(".", 2)[-1] for r in readers[:2]) \
                        or "concurrency-reachable code"
                    self.findings.append(Finding(
                        rule="RPR103",
                        path=fn.module.path,
                        line=node.lineno,
                        col=node.col_offset + 1,
                        message=(
                            f"unlocked write to {owner.rsplit('.', 1)[-1]}.{attr}, "
                            f"which {shown} accesses on a worker thread; guard it "
                            f"with the owning lock"
                        ),
                        snippet=fn.module.line_at(node.lineno),
                    ))
                elif (not is_write and base == "self"
                        and attr in guarded.get(owner, ())):
                    # Lock-consistency: the class guards this attribute's
                    # writes, so unlocked multi-attribute reads can tear
                    # even without a proven concurrent path.
                    torn_reads.setdefault(attr, node)
            if len(torn_reads) >= 2 and cls is not None:  # RPR104
                first = min(torn_reads.values(), key=lambda n: n.lineno)
                attrs = ", ".join(sorted(torn_reads))
                self.findings.append(Finding(
                    rule="RPR104",
                    path=fn.module.path,
                    line=first.lineno,
                    col=first.col_offset + 1,
                    message=(
                        f"torn snapshot in {cls.name}.{fn.name}: reads {attrs} "
                        f"without the lock that guards their writes; copy them "
                        f"under the lock first"
                    ),
                    snippet=fn.module.line_at(first.lineno),
                ))
        return self.findings
