"""The static-analysis engine: load, run rules, filter, report.

One pass per run: :meth:`Project.load` walks and parses every file once.
Each selected per-file rule runs over each file's
:class:`~repro.checks.project.ModuleInfo`.  The whole-program analyses
then run over the same project: RPR101/RPR102 (dtype and shape flow),
RPR103/RPR104 (races, the only ones that need the call graph) and
RPR105 (seed provenance).  Every finding goes through one filter: drop
it when a ``# repro: ignore[...]`` comment silences it, else match it
against the committed baseline.  Whatever survives is a *new* finding
and fails the run.
"""

from __future__ import annotations

from pathlib import Path

from .baseline import Baseline
from .callgraph import build_callgraph
from .dtypeflow import DtypeShapeAnalysis
from .findings import CheckResult, Finding
from .project import Project
from .races import RaceAnalysis
from .registry import all_rules
from .seeds import SeedTaintAnalysis

__all__ = ["check_paths"]

_DTYPE_RULES = {"RPR101", "RPR102"}
_RACE_RULES = {"RPR103", "RPR104"}
_SEED_RULES = {"RPR105"}


def check_paths(
    paths,
    select: list[str] | None = None,
    baseline: Baseline | None = None,
    root: str | Path | None = None,
    graph: bool = False,
) -> CheckResult:
    """Run the rule pack over ``paths`` and classify every finding.

    ``select`` restricts to a subset of rule ids; ``baseline`` absorbs
    grandfathered findings; ``root`` anchors the relative paths used in
    output and baseline keys (default: the current directory); ``graph``
    builds the call graph into the result even when no selected rule
    needs it.
    """
    specs = all_rules()
    if select:
        wanted = set(select)
        unknown = wanted - {s.id for s in specs}
        if unknown:
            raise KeyError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
        specs = [s for s in specs if s.id in wanted]
    selected = {s.id for s in specs}
    file_rules = [s.check for s in specs if s.check is not None]

    project = Project.load(paths, root=root)
    result = CheckResult(n_files=len(project.files) + len(project.errors),
                         errors=list(project.errors))
    raw: list[Finding] = []
    for module in project.files.values():
        for check in file_rules:
            raw.extend(check(module))

    if selected & _DTYPE_RULES:
        raw.extend(DtypeShapeAnalysis(project).run())
    if graph or selected & _RACE_RULES:
        result.graph = build_callgraph(project)
    if selected & _RACE_RULES:
        raw.extend(RaceAnalysis(project, result.graph).run())
    if selected & _SEED_RULES:
        seeds = SeedTaintAnalysis(project)
        raw.extend(seeds.run())
        result.provenance = seeds.provenance_rows()

    match_baseline = (baseline or Baseline()).make_matcher()
    for finding in sorted(raw, key=Finding.sort_key):
        if finding.rule not in selected:
            continue
        if project.files[finding.path].suppressions.is_suppressed(
                finding.rule, finding.line):
            result.suppressed.append(finding)
        elif match_baseline(finding):
            result.baselined.append(finding)
        else:
            result.findings.append(finding)
    return result
