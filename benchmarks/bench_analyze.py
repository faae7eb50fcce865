"""Static analyzer cost probe — pins the CI < 30 s budget.

Times ``repro check`` over the full ``src/repro`` tree, broken down by
stage (parse + symbol table, the per-file rules, call graph, and each of
the three whole-program analyses), and records peak RSS so a memoization
regression in the abstract interpreters shows up as a number, not a CI
timeout.  CI treats a full run above ``BUDGET_S`` as a regression::

    PYTHONPATH=src python benchmarks/bench_analyze.py
"""

import resource
import time
from pathlib import Path

from repro.checks import Project, all_rules, build_callgraph, check_paths
from repro.checks.dtypeflow import DtypeShapeAnalysis
from repro.checks.races import RaceAnalysis
from repro.checks.seeds import SeedTaintAnalysis

REPO_ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3
BUDGET_S = 30.0  # the CI gate's time budget for the full pipeline


def _best(fn):
    best, result = float("inf"), None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def run_analyze_probe():
    src = REPO_ROOT / "src"

    t_load, project = _best(lambda: Project.load([src], root=REPO_ROOT))
    file_rules = [spec.check for spec in all_rules() if spec.check is not None]
    t_files, _ = _best(lambda: [list(check(module)) for module in project.files.values()
                                for check in file_rules])
    t_graph, graph = _best(lambda: build_callgraph(project))

    def _stage(cls, *extra):
        analysis = cls(project, *extra)
        analysis.run()
        return analysis

    t_dtype, _ = _best(lambda: _stage(DtypeShapeAnalysis))
    t_races, _ = _best(lambda: _stage(RaceAnalysis, graph))
    t_seeds, _ = _best(lambda: _stage(SeedTaintAnalysis))

    t_full, result = _best(lambda: check_paths([src], root=REPO_ROOT))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    stats = result.graph.stats()
    print(f"src/repro: {result.n_files} modules, "
          f"{stats['nodes']} call-graph nodes, {stats['edges']} edges, "
          f"{stats['concurrent']} concurrency-reachable (best of {REPEATS}):")
    print(f"  parse + symbols   {t_load * 1e3:8.1f} ms")
    print(f"  per-file rules    {t_files * 1e3:8.1f} ms")
    print(f"  call graph        {t_graph * 1e3:8.1f} ms")
    print(f"  dtype/shape flow  {t_dtype * 1e3:8.1f} ms")
    print(f"  race analysis     {t_races * 1e3:8.1f} ms")
    print(f"  seed taint        {t_seeds * 1e3:8.1f} ms")
    print(f"  full pipeline     {t_full * 1e3:8.1f} ms")
    print(f"  peak RSS          {peak_rss_mb:8.1f} MB")
    verdict = "OK" if t_full < BUDGET_S else "OVER BUDGET"
    print(f"  budget {BUDGET_S:.0f}s -> {verdict}")
    if t_full >= BUDGET_S:
        raise SystemExit(1)

    from common import write_results

    write_results("bench_analyze", {
        "n_modules": result.n_files,
        "callgraph": stats,
        "load_s": t_load,
        "file_rules_s": t_files,
        "callgraph_s": t_graph,
        "dtype_s": t_dtype,
        "races_s": t_races,
        "seeds_s": t_seeds,
        "full_s": t_full,
        "peak_rss_mb": peak_rss_mb,
        "budget_s": BUDGET_S,
        "findings": len(result.findings),
    })


if __name__ == "__main__":
    from common import bench_entry

    bench_entry(run_analyze_probe)
