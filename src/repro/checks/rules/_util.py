"""Small AST helpers and name sets shared by the per-file rules and the
whole-program analyses."""

from __future__ import annotations

import ast

__all__ = [
    "LOCK_FACTORIES", "MUTATORS", "EXEMPT_METHODS",
    "dotted_name", "is_self_attr", "self_attr_base", "names_from_import",
]

# ``self.<attr> = threading.<factory>(...)`` makes ``<attr>`` a lock.
LOCK_FACTORIES = {"Lock", "RLock", "Condition"}
# Mutating container/deque/dict methods: calling one through an
# attribute is a write to that attribute's object.
MUTATORS = {
    "append", "appendleft", "extend", "insert", "add", "update", "pop",
    "popleft", "popitem", "remove", "discard", "clear", "move_to_end",
    "setdefault",
}
# Construction-time methods: writes there happen before any sharing.
EXEMPT_METHODS = {"__init__", "__new__", "__post_init__", "__set_name__",
                  "__init_subclass__"}


def dotted_name(node: ast.AST) -> str | None:
    """``np.fft.rfft2`` → ``"np.fft.rfft2"`` (None for non-name chains)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def is_self_attr(node: ast.AST) -> bool:
    """True for a plain ``self.<attr>`` access."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def self_attr_base(node: ast.AST) -> str | None:
    """Attribute name of the ``self.<attr>`` at the base of a target.

    Handles ``self.x``, ``self.x[i]`` and ``self.x.y`` write targets,
    returning ``"x"``; None when the target is not rooted at ``self``.
    """
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if is_self_attr(node):
            return node.attr
        node = node.value
    return None


def names_from_import(tree: ast.Module, module: str) -> set[str]:
    """Local names bound by ``from <module> import ...`` statements."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names
