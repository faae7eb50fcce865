"""``repro check`` — run the static-analysis rule pack from the command line.

Usage::

    python -m repro.cli check src                      # text report
    python -m repro.cli check src --format json        # machine-readable
    python -m repro.cli check src --write-baseline     # grandfather findings
    python -m repro.cli check src --prune-baseline     # drop stale entries
    python -m repro.cli check src --select RPR001,RPR103
    python -m repro.cli check src --graph callgraph.dot
    python -m repro.cli check --list-rules

Exit codes: 0 — clean (only suppressed/baselined findings); 1 — new
findings; 2 — usage, parse or baseline-format errors.  The JSON report
also carries the call-graph stats (when RPR103/RPR104 ran) and the
RPR105 seed-provenance table.
"""

from __future__ import annotations

import argparse
import json
import sys

from .baseline import Baseline, load_baseline, prune_baseline, write_baseline
from .engine import check_paths
from .registry import all_rules

__all__ = ["add_check_arguments", "run_check", "main"]

DEFAULT_BASELINE = "checks-baseline.json"


def add_check_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``check`` options to an (sub)parser."""
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to analyse (default: src)")
    parser.add_argument("--format", choices=["text", "json"], default="text",
                        help="report format")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE, metavar="FILE",
                        help=f"baseline of grandfathered findings (default: {DEFAULT_BASELINE})")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline file; report every finding")
    parser.add_argument("--write-baseline", action="store_true",
                        help="record current findings as the new baseline and exit 0")
    parser.add_argument("--prune-baseline", action="store_true",
                        help="remove baseline entries whose source sites no longer "
                             "exist, rewrite the file, and exit 0")
    parser.add_argument("--select", default=None, metavar="RULES",
                        help="comma-separated rule ids to run (default: all)")
    parser.add_argument("--graph", default=None, metavar="FILE",
                        help="write the call graph as Graphviz dot to FILE ('-' for stdout)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule pack and exit")
    parser.add_argument("--verbose", action="store_true",
                        help="also list baselined and suppressed findings (text format)")


def run_check(args) -> int:
    if args.list_rules:
        for spec in all_rules():
            print(f"{spec.id}  {spec.name:<18} {spec.description}")
        return 0

    select = [r.strip() for r in args.select.split(",") if r.strip()] if args.select else None
    try:
        if args.prune_baseline:
            baseline = load_baseline(args.baseline)
            result = check_paths(args.paths, select=select, baseline=Baseline())
            pruned, removed = prune_baseline(baseline, result.findings)
            if removed:
                write_baseline(args.baseline, pruned)
            print(f"pruned {removed} stale entr{'y' if removed == 1 else 'ies'} "
                  f"from {args.baseline} ({len(pruned)} remaining)")
            return 0
        baseline = Baseline() if (args.no_baseline or args.write_baseline) \
            else load_baseline(args.baseline)
        result = check_paths(args.paths, select=select, baseline=baseline,
                             graph=args.graph is not None)
    except (FileNotFoundError, KeyError, ValueError) as exc:
        print(f"repro check: error: {exc}", file=sys.stderr)
        return 2

    if args.graph is not None:
        dot = result.graph.to_dot()
        if args.graph == "-":
            sys.stdout.write(dot)
        else:
            with open(args.graph, "w", encoding="utf-8") as fh:
                fh.write(dot)

    if args.write_baseline:
        new_baseline = Baseline.from_findings(
            result.findings,
            comment="Grandfathered findings; fix or justify before extending.",
        )
        write_baseline(args.baseline, new_baseline)
        print(f"wrote {len(new_baseline)} finding(s) to {args.baseline}")
        return 0

    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2))
    else:
        for finding in result.findings:
            print(finding.render())
        if args.verbose:
            for label, bucket in (("baselined", result.baselined),
                                  ("suppressed", result.suppressed)):
                for finding in bucket:
                    print(f"[{label}] {finding.render()}")
        for error in result.errors:
            print(f"error: {error}", file=sys.stderr)
        print(
            f"checked {result.n_files} file(s): {len(result.findings)} finding(s), "
            f"{len(result.baselined)} baselined, {len(result.suppressed)} suppressed"
            + (f", {len(result.errors)} error(s)" if result.errors else "")
        )
    if result.errors:
        return 2
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro check", description="repro static-analysis rule pack"
    )
    add_check_arguments(parser)
    return run_check(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
