"""Rule registry: every rule id the engine knows, per-file and whole-program.

A **per-file** rule self-registers via the :func:`rule` decorator as a
callable ``check(ctx: FileContext) -> Iterable[Finding]``.  The engine
runs every selected one over every parsed file; rules are pure
functions of the file context, so they compose and test in isolation.

A **whole-program** rule (RPR101–RPR105) has no per-file check: the
engine runs the analysis that owns it once over the loaded project
(see :mod:`repro.checks.engine`).  It is listed here so ``--list-rules``,
``--select`` and the baseline treat both kinds alike.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterable

from .findings import Finding

__all__ = ["FileContext", "RuleSpec", "rule", "all_rules", "get_rule"]

# Zones let rules scope themselves to the parts of the tree where their
# hazard actually applies (see classify_zone in engine.py).
HOT_ZONE = "hot"        # nn/, serve/, tensor/ — the float32 serving path
SOLVER_ZONE = "solver"  # ns/, ns3d/, lbm/ — float64 numerics by design
COMPILE_ZONE = "compile"  # compile/ — plan-executed closures, allocation-free
TEST_ZONE = "test"
OTHER_ZONE = "other"


@dataclass
class FileContext:
    """Everything a rule may inspect about one source file."""

    path: str            # display/baseline path (posix, relative)
    tree: ast.Module
    lines: list[str]     # raw source lines, 1-indexed via line_at()
    zone: str

    def line_at(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule_id,
            path=self.path,
            line=lineno,
            col=col + 1,
            message=message,
            snippet=self.line_at(lineno),
        )


@dataclass(frozen=True)
class RuleSpec:
    id: str
    name: str
    description: str
    # None for a whole-program rule, which the engine runs over the project.
    check: Callable[[FileContext], Iterable[Finding]] | None = None


_RULES: dict[str, RuleSpec] = {
    spec.id: spec for spec in (
        RuleSpec("RPR101", "dtype-widening", "cross-module implicit f32→f64/c128 widening"),
        RuleSpec("RPR102", "shape-contract", "statically provable shape mismatches"),
        RuleSpec("RPR103", "unlocked-write", "shared-state writes outside the owning lock"),
        RuleSpec("RPR104", "torn-read", "multi-attribute reads without the guarding lock"),
        RuleSpec("RPR105", "seed-provenance", "artifact writes fed by unseeded RNG streams"),
    )
}


def rule(rule_id: str, name: str, description: str):
    """Register ``check(ctx)`` under ``rule_id`` (e.g. ``RPR001``)."""

    def decorator(check: Callable[[FileContext], Iterable[Finding]]):
        if rule_id in _RULES:
            raise ValueError(f"duplicate rule id {rule_id}")
        _RULES[rule_id] = RuleSpec(id=rule_id, name=name, description=description, check=check)
        return check

    return decorator


def all_rules() -> list[RuleSpec]:
    # Importing the rules package populates the registry on first use.
    from . import rules  # noqa: F401

    return [spec for _, spec in sorted(_RULES.items())]


def get_rule(rule_id: str) -> RuleSpec:
    from . import rules  # noqa: F401

    try:
        return _RULES[rule_id]
    except KeyError:
        known = ", ".join(sorted(_RULES))
        raise KeyError(f"unknown rule {rule_id!r} (known: {known})") from None
