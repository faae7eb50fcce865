"""repro.checks — the static analyzer and the runtime dtype sanitizer.

Two complementary halves:

* **Static** (stdlib ``ast``, zero dependencies): one engine that loads
  and parses each source file once (:class:`Project`), runs the
  per-file rules RPR001–RPR011 over every file and the whole-program
  analyses RPR101–RPR105 over the project (dtype/shape flow across
  modules, lock-aware races over the call graph, seed provenance), then
  filters every finding through per-line suppression comments
  (``# repro: ignore[RPR001]``) and one committed baseline
  (``checks-baseline.json``).  ``repro check`` is its CLI — see
  :mod:`repro.checks.cli`.
* **Runtime**: :func:`dtype_sanitizer`, a context manager asserting that
  no tensor op silently widens float32 inputs to float64/complex128.

Typical use::

    from repro.checks import check_paths, load_baseline
    result = check_paths(["src"], baseline=load_baseline("checks-baseline.json"))
    assert result.ok, result.findings

    from repro.checks import dtype_sanitizer
    with dtype_sanitizer():
        model(Tensor(window.astype(np.float32)))
"""

from .baseline import Baseline, load_baseline, prune_baseline, write_baseline
from .callgraph import CallGraph, build_callgraph
from .engine import check_paths
from .findings import CheckResult, Finding
from .project import Project, classify_zone, iter_python_files
from .registry import FileContext, RuleSpec, all_rules, get_rule, rule
from .sanitizer import DtypePromotionError, SanitizerReport, dtype_sanitizer

__all__ = [
    "Baseline", "load_baseline", "prune_baseline", "write_baseline",
    "CallGraph", "build_callgraph",
    "check_paths", "classify_zone", "iter_python_files", "Project",
    "CheckResult", "Finding",
    "FileContext", "RuleSpec", "all_rules", "get_rule", "rule",
    "DtypePromotionError", "SanitizerReport", "dtype_sanitizer",
]
