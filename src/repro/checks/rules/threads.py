"""RPR002 — thread-safety of shared mutable state in ``repro.serve``.

The serving subsystem is the one place in the repo where many threads
(HTTP handlers, workers, the batcher) touch the same objects.  Within
``serve/`` files the rule flags, per class:

* writes to ``self.<attr>`` (assign / augmented assign / element store)
  in any non-``__init__`` method that are not lexically inside a
  ``with self.<lock>:`` block, and
* calls to mutating container methods (``append``/``pop``/``update``/…)
  on ``self.<attr>`` outside a held lock,

where ``<lock>`` is any attribute the class assigns from
``threading.Lock/RLock/Condition``.  Classes with no lock at all are held
to the same standard — their post-``__init__`` writes are flagged so the
author either adds a lock or documents thread confinement with a
justified suppression.  ``global`` rebinding inside serve functions is
flagged unconditionally.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Iterator

from ..findings import Finding
from ..registry import FileContext, rule
from ._util import (
    EXEMPT_METHODS,
    LOCK_FACTORIES,
    MUTATORS,
    dotted_name,
    is_self_attr,
    self_attr_base,
)


def _lock_attrs(cls: ast.ClassDef) -> set[str]:
    """Attributes assigned from threading.Lock/RLock/Condition anywhere."""
    locks: set[str] = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            name = dotted_name(node.value.func)
            if name and name.split(".")[-1] in LOCK_FACTORIES:
                for target in node.targets:
                    if is_self_attr(target):
                        locks.add(target.attr)
    return locks


def _methods(cls: ast.ClassDef) -> Iterator[ast.FunctionDef]:
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _is_lock_context(item: ast.withitem, locks: set[str]) -> bool:
    expr = item.context_expr
    if isinstance(expr, ast.Call):  # e.g. with self._lock: vs self._cond.something()
        expr = expr.func
    if is_self_attr(expr):
        return expr.attr in locks or "lock" in expr.attr.lower()
    return False


def _walk_method(node: ast.AST, locks: set[str], locked: bool, out: list[tuple[ast.AST, str]]):
    """Recurse through a method body tracking lock-held regions lexically."""
    if isinstance(node, ast.With):
        held = locked or any(_is_lock_context(item, locks) for item in node.items)
        for child in node.body:
            _walk_method(child, locks, held, out)
        return
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return  # nested callables run later, in an unknown lock context
    if not locked:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                attr = self_attr_base(target)
                if attr is not None:
                    out.append((node, attr))
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            func = node.value.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATORS
                and self_attr_base(func.value) is not None
            ):
                out.append((node, f"{self_attr_base(func.value)}.{func.attr}()"))
    for child in ast.iter_child_nodes(node):
        _walk_method(child, locks, locked, out)


@rule(
    "RPR002",
    "thread-safety",
    "writes to shared self./module state in repro.serve outside a held lock "
    "(add a lock or document thread confinement with a suppression)",
)
def check_thread_safety(ctx: FileContext) -> Iterator[Finding]:
    if "serve" not in PurePosixPath(ctx.path).parts:
        return
    for cls in ast.walk(ctx.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        locks = _lock_attrs(cls)
        for method in _methods(cls):
            if method.name in EXEMPT_METHODS:
                continue
            writes: list[tuple[ast.AST, str]] = []
            for stmt in method.body:
                _walk_method(stmt, locks, locked=False, out=writes)
            for node, attr in writes:
                hint = (
                    f"guard it with one of {sorted(locks)}" if locks
                    else "the class has no lock attribute"
                )
                yield ctx.finding(
                    "RPR002", node,
                    f"{cls.name}.{method.name} writes shared state "
                    f"'self.{attr}' outside a held lock; {hint}",
                )
    # global rebinding from inside functions is never thread-safe here.
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Global):
            yield ctx.finding(
                "RPR002", node,
                f"'global {', '.join(node.names)}' rebinding in serve code "
                f"races across handler threads",
            )
