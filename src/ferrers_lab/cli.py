"""Command-line front door.

One subcommand per operation; every report is a single JSON document (or
a flattened key,value CSV) with a schema_version field.  Each handler
returns its report as raw values with its exit code, and ``run`` alone
renders and writes it: ``_jsonable`` is the one formatter, so rationals
serialize as "p/q" strings, canonical codes as hex and floats to 12
significant digits, and identical inputs produce byte-identical reports,
including under --jobs > 1.  "-" means standard input/output for graph
files.

Exit codes: 0 success with no counterexamples, 1 a verified counterexample
or failed bound, 2 usage or input error, 3 budget exceeded, 4 an internal
cross-check failed (a defect in the program, not a counterexample).
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from fractions import Fraction

from .budget import DEFAULT_THM71_VERTICES, BudgetExceeded
from .conjectures import (
    bozkurt_check,
    ferrers_bound_check,
    grone_merris_check,
    venkataramana_check,
)
from .exactla import InternalCheckError
from .graphs import (
    BipartiteGraph,
    GraphFormatError,
    _admit_file,
    ferrers_from_partition,
    format_graph,
    parse_graph_file,
)
from .partitions import Partition
from .resistance import (
    edge_deletion_equivalence,
    edge_deletion_equivalence_scan,
    resistance,
)
from .search import degree_class_max, spectral_search, verify_ferrers_bound
from .spectral import (
    dense_cut_vertex_hypothesis,
    normalized_product_check,
    spectrum_report,
    sqrt_edge_bound_check,
)
from .trees import enumerate_spanning_trees, sigma_bruteforce, tau

SCHEMA_VERSION = 1


def _jsonable(value):
    """The one report formatter: a rational as "p/q" (a bare integer when
    the denominator is 1), a float to 12 significant digits, bytes as hex
    and a tuple as a list."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return "%d/%d" % (value.numerator, value.denominator)
    if isinstance(value, float):
        return float("%.12g" % value)
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _flatten(prefix, value, rows):
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten("%s.%s" % (prefix, k) if prefix else str(k), v, rows)
    elif isinstance(value, list):
        for idx, v in enumerate(value):
            _flatten("%s[%d]" % (prefix, idx), v, rows)
    else:
        rows.append((prefix, value))


def _render(doc: dict, fmt: str) -> str:
    doc = _jsonable(doc)
    if fmt == "json":
        return json.dumps(doc, indent=2) + "\n"
    import csv

    rows = []
    _flatten("", doc, rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in rows:
        writer.writerow([key, "" if value is None else value])
    return buf.getvalue()


def _write(text: str, out: str):
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _load_graph(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    return parse_graph_file(text)


def _require_bipartite(graph, command):
    if not isinstance(graph, BipartiteGraph):
        raise GraphFormatError(
            "the %s command needs a bipartite graph file" % command
        )
    return graph


def _parse_pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("expected two comma-separated vertex indices, got %r" % text)
    return int(parts[0]), int(parts[1])


#: the file name prefixes of the graphs that --emit-graphs writes
_EMITTED = ("extremal", "counterexample")


def _search_doc(args, search, *params):
    """Run ``search`` on ``params`` and return its report and exit code (1 on
    a counterexample), after writing its graphs when asked.  An
    --emit-graphs directory that already holds such graph files, or cannot
    be made, is refused before the search starts, so that no old file
    outlives the run and no search result is lost."""
    outdir = args.emit_graphs
    if outdir:
        import glob

        stale = [path for label in _EMITTED for path in
                 glob.glob(os.path.join(glob.escape(outdir), label + "_*.graph"))]
        if stale:
            raise ValueError("--emit-graphs directory %s already holds %d graph"
                             " files of an earlier search" % (outdir, len(stale)))
        os.makedirs(outdir, exist_ok=True)
    report = search(*params, jobs=args.jobs, budget=args.budget)
    if outdir:
        for label, graphs in zip(_EMITTED, (report.extremal, report.counterexamples)):
            for idx, g in enumerate(graphs.values()):
                path = os.path.join(outdir, "%s_%03d.graph" % (label, idx))
                with open(path, "w") as fh:
                    fh.write(format_graph(g))
    return report.as_dict(), 0 if not report.counterexamples else 1


def _bound_doc(check):
    return {"lhs": check.lhs, "rhs": check.rhs, "holds": check.holds,
            "tight": check.equality, "tol": check.tol}


def _cmd_gen(args):
    lmbda = Partition.from_string(args.partition)
    cols = args.cols
    if cols is None:
        cols = lmbda[0] if len(lmbda) else 0
    # the file must read back, so refuse it before any row is built
    _admit_file(len(lmbda) + cols)
    return format_graph(ferrers_from_partition(lmbda, cols)), 0


def _cmd_trees(args):
    graph = _require_bipartite(_load_graph(args.graph), "trees")
    check = ferrers_bound_check(graph)
    doc = {
        "tau": str(check.lhs),  # exact in any JSON reader, however large
        "ferrers_invariant": check.rhs,
        "ferrers_good": check.holds,
    }
    # with both flags one walk serves: the coefficients count the trees
    poly = sigma_bruteforce(graph, budget=args.budget) if args.sigma else None
    if args.enumerate:
        if poly is None:
            count = len(enumerate_spanning_trees(graph, budget=args.budget))
        else:
            count = sum(poly.values())
        doc["enumeration"] = {"count": count, "matches_tau": count == check.lhs}
    if poly is not None:
        doc["sigma"] = [
            {"coefficient": coeff, "exponents": exps}
            for exps, coeff in sorted(poly.items())
        ]
    return doc, 0 if doc["ferrers_good"] else 1


def _cmd_spectral(args):
    graph = _require_bipartite(_load_graph(args.graph), "spectral")
    report = spectrum_report(graph)
    doc = {
        "lambda_max": report.lambda_max,
        "laplacian_spectrum": report.laplacian_spectrum,
        "normalized_spectrum": report.normalized_spectrum,
        "residual": report.residual,
    }
    checks = {}
    checks["sqrt_edge_bound"] = _bound_doc(
        sqrt_edge_bound_check(graph, report.lambda_max))
    try:
        checks["normalized_product"] = _bound_doc(
            normalized_product_check(graph, report.normalized_spectrum))
    except ValueError as exc:
        checks["normalized_product"] = {"skipped": str(exc)}
    checks["dense_cut_vertex"] = {"holds": dense_cut_vertex_hypothesis(graph)}
    doc["checks"] = checks
    return doc, 0


def _cmd_resistance(args):
    graph = _load_graph(args.graph)
    i, j = _parse_pair(args.pair)
    return {"pair": [i, j], "resistance": resistance(graph, i, j)}, 0


def _cmd_thm71(args):
    graph = _load_graph(args.graph)
    report = edge_deletion_equivalence(graph, _parse_pair(args.e), _parse_pair(args.f))
    return report.as_dict(), 0 if report.all_agree else 1


def _cmd_thm71_scan(args):
    result = edge_deletion_equivalence_scan(args.max_n, jobs=args.jobs,
                                            budget=args.budget)
    return result, 0 if result["all_agree_everywhere"] else 1


_BOUNDS = {
    "bozkurt": bozkurt_check,
    "venkataramana": venkataramana_check,
    "grone-merris": grone_merris_check,
    "eq3": ferrers_bound_check,
}
#: the bounds that read the tree count; one run counts it once for them all
_TREE_COUNT_BOUNDS = {"bozkurt", "venkataramana", "eq3"}


def _cmd_check(args):
    graph = _require_bipartite(_load_graph(args.graph), "check")
    names = list(_BOUNDS) if args.all else [args.bound]
    t = tau(graph) if _TREE_COUNT_BOUNDS.intersection(names) else None
    reports = [_BOUNDS[name](graph, t) if name in _TREE_COUNT_BOUNDS
               else _BOUNDS[name](graph) for name in names]
    doc = {"reports": [r.as_dict() for r in reports]}
    return doc, 0 if all(r.holds for r in reports) else 1


def _cmd_verify_ferrers_bound(args):
    return _search_doc(args, verify_ferrers_bound, args.max_vertices)


def _cmd_spectral_search(args):
    return _search_doc(args, spectral_search, args.p, args.q, args.e)


def _cmd_degree_class(args):
    return _search_doc(args, degree_class_max, Partition.from_string(args.degrees))


_COMMANDS = {
    "gen": _cmd_gen,
    "trees": _cmd_trees,
    "spectral": _cmd_spectral,
    "resistance": _cmd_resistance,
    "thm71": _cmd_thm71,
    "thm71-scan": _cmd_thm71_scan,
    "check": _cmd_check,
    "verify-ferrers-bound": _cmd_verify_ferrers_bound,
    "spectral-search": _cmd_spectral_search,
    "degree-class": _cmd_degree_class,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged, so in-process callers of ``main`` share it."""
    parser = argparse.ArgumentParser(
        prog="ferrers-lab",
        description="Exact spectral and spanning-tree analysis of bipartite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, jobs=False, budget=False):
        p.add_argument("--format", choices=["json", "csv"], default="json",
                       help="report format (default json)")
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        if jobs:
            p.add_argument("--jobs", type=int, default=1,
                           help="worker processes (default 1)")
        if budget:
            p.add_argument("--budget", type=int, default=None,
                           help="override the operation's budget cap")

    p = sub.add_parser("gen", help="emit a staircase graph file from a partition")
    p.add_argument("--partition", required=True, help="e.g. 3,3,2,1")
    p.add_argument("--cols", type=int, default=None,
                   help="column count (default: largest part)")
    common(p)

    p = sub.add_parser("trees", help="tree count and degree-product invariant")
    p.add_argument("--graph", required=True, help="graph file, '-' for stdin")
    p.add_argument("--enumerate", action="store_true",
                   help="cross-check by explicit enumeration")
    p.add_argument("--sigma", action="store_true",
                   help="include the weighted spanning-tree polynomial")
    common(p, budget=True)

    p = sub.add_parser("spectral", help="spectra and spectral bound checks")
    p.add_argument("--graph", required=True)
    common(p)

    p = sub.add_parser("resistance", help="exact resistance distance")
    p.add_argument("--graph", required=True)
    p.add_argument("--pair", required=True, help="i,j (1-based)")
    common(p)

    p = sub.add_parser("thm71", help="eleven-condition edge-deletion equivalence")
    p.add_argument("--graph", required=True)
    p.add_argument("--e", required=True, help="first edge as i,j")
    p.add_argument("--f", required=True, help="second edge as k,l")
    common(p)

    p = sub.add_parser("thm71-scan",
                       help="exhaustive equivalence check over small graphs")
    p.add_argument("--max-n", type=int, default=DEFAULT_THM71_VERTICES,
                   dest="max_n")
    common(p, jobs=True, budget=True)

    p = sub.add_parser("check", help="per-graph bound reports")
    p.add_argument("--graph", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true")
    group.add_argument("--bound", choices=sorted(_BOUNDS))
    common(p)

    p = sub.add_parser("verify-ferrers-bound",
                       help="scan all connected bipartite classes for tau > invariant")
    p.add_argument("--max-vertices", type=int, required=True, dest="max_vertices")
    p.add_argument("--emit-graphs", default=None, dest="emit_graphs",
                   help="write extremal/counterexample graphs to this directory")
    common(p, jobs=True, budget=True)

    p = sub.add_parser("spectral-search",
                       help="maximize spectral radius over a fixed-size class")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--emit-graphs", default=None, dest="emit_graphs")
    common(p, jobs=True, budget=True)

    p = sub.add_parser("degree-class",
                       help="maximize spectral radius over fixed row degrees")
    p.add_argument("--D", required=True, dest="degrees", help="e.g. 3,3,2,1")
    p.add_argument("--emit-graphs", default=None, dest="emit_graphs")
    common(p, jobs=True, budget=True)

    return parser


def run(args: argparse.Namespace) -> int:
    """Dispatch one parsed invocation, then render and write its report;
    returns the process exit code."""
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ValueError("jobs must be at least 1")
        if getattr(args, "budget", None) is not None and args.budget < 1:
            raise ValueError("budget must be positive")
        doc, code = _COMMANDS[args.command](args)
        if isinstance(doc, dict):
            doc = _render({"schema_version": SCHEMA_VERSION, **doc}, args.format)
        _write(doc, args.out)
        return code
    except BudgetExceeded as exc:
        message = "ferrers-lab: budget exceeded: %s" % exc
        if exc.progress is not None:
            message += " (progress: %s)" % json.dumps(exc.progress, sort_keys=True)
        print(message, file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print("ferrers-lab: internal check failed: %s" % exc, file=sys.stderr)
        return 4
    except (GraphFormatError, OSError, ValueError) as exc:
        if isinstance(exc, OSError) and exc.filename is None:
            raise  # not an unusable path, e.g. a worker pool failing to fork
        print("ferrers-lab: %s" % exc, file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
