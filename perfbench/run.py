"""ferrers-lab benchmark: CLI workloads, end-to-end metrics, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py                      # every workload, untraced then traced
    python3 perfbench/run.py --workload thm71-scan --seed 3 --trace 0
    python3 perfbench/run.py --smoke              # toy sizes, checks the benchmark itself

The load is a closed loop with one client.  A pass starts a fresh
interpreter (child.py) that imports the package from ``src``, writes the
workload's inputs and runs its operations one after another with
``--jobs 1``; only one child runs at a time.  Passes repeat for about
``--seconds`` (at least one pass), and each metric is a median over them.
Every report is checked: exit code and digest against pinned.json, plus
the published class counts.

With ``--trace 0`` the metrics are end to end and measured untraced; with
``--trace 1`` the children wrap the package's public functions
(tracer.py) and the metrics are per layer.  The metrics named in
BENCHMARK.json make up the last line of standard output, one JSON object;
the full tables go to the lines before it and to the result file
(``--out``, by default under ``.perfbench/results``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, pin_key  # noqa: E402

#: set-up-only interpreters started before each untraced pass
SETUP_SPAWNS_PER_PASS = 2
CHILD_TIMEOUT_S = 150

#: published counts every scan report must reproduce
EXPECTED = {
    # OEIS A005142 (connected bipartite graphs) summed over n = 2..10 / 2..6
    ("bipartite-scan", False): {"examined": 5015},
    ("bipartite-scan", True): {"examined": 27},
    # OEIS A001349 (connected graphs) summed over n = 4..6 / n = 4
    ("thm71-scan", False): {"graphs_checked": 139, "pairs_checked": 1483,
                            "all_agree_everywhere": True},
    ("thm71-scan", True): {"graphs_checked": 6, "all_agree_everywhere": True},
}

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "items_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}

#: per-layer metrics the issue names; reported even when zero
NAMED_LAYER_METRICS = [
    "search.enumerate_class.self_s",
    "search.canonical_code.calls", "search.canonical_code.self_s",
    "search.classes", "search.dedupe_yield", "search.connected_yield",
    "graphs.is_connected.calls", "graphs.is_connected.self_s",
    "graphs.laplacian.calls", "graphs.laplacian.self_s",
    "graphs.parse_graph_file.self_s",
    "trees.tau.calls", "trees.tau.self_s",
    "exactla.det_int.calls", "exactla.det_int.self_s",
    "exactla.matmul.calls", "exactla.matmul.self_s", "exactla.matmul.scalar_mults",
    "exactla.matvec.calls", "exactla.matvec.self_s",
    "exactla.inverse.calls", "exactla.inverse.self_s",
    "exactla.ginverse.build_s", "exactla.ginverse.verify_s",
    "exactla.moore_penrose_laplacian.calls", "exactla.bordered_ginverse.calls",
    "resistance.edge_deletion_equivalence.calls",
    "resistance.edge_deletion_equivalence.self_s",
    "resistance.connected_graphs.total_s",
    "resistance.resistance.calls", "resistance.resistance.self_s",
    "spectral.jacobi_eigh.calls", "spectral.jacobi_eigh.self_s",
    "spectral.spectral_radius.calls",
] + ["%s.self_s" % mod for mod in tracer.MODULES]

WAITING_NOTE = ("no layer waits: one closed-loop client runs operations one after "
                "another with --jobs 1, so there is no queue to measure")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_yield", ".share")):
        return "ratio"
    return "count"


def percentile(values, q):
    """Linear-interpolated percentile (inclusive method) of a nonempty list."""
    values = sorted(values)
    pos = (len(values) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def git_commit():
    """HEAD of the checkout, or None outside a git work tree."""
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    value = _read(os.path.join(ROOT, ".git", ref))
    if value is not None:
        return value.strip()
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment():
    cpuinfo = _read("/proc/cpuinfo") or ""
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
              if line.startswith("model name")]
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": models[0] if models else platform.machine(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "loadavg_start": (_read("/proc/loadavg") or "").strip(),
    }


class Runner:
    """Starts children one at a time from a private scratch directory."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("FERRERS_LAB_BUDGET", "PYTHONPATH")}
        self.env["PYTHONHASHSEED"] = "0"
        self.count = 0

    def spawn(self, job):
        """Run one child; returns (record, setup_s, peak_rss_mb) or raises."""
        self.count += 1
        tag = os.path.join(self.workdir, "child%d" % self.count)
        job = dict(job, root=ROOT, inputs=os.path.join(self.workdir, "inputs"),
                   record=tag + ".json", spans=tag + ".spans.json")
        errpath = tag + ".stderr"
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_OPEN, 2, errpath, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        argv = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(job)]
        started = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        reaped = False
        try:
            while True:
                reaped, status, usage = os.wait4(pid, os.WNOHANG)
                if reaped:
                    break
                if time.monotonic() - started > CHILD_TIMEOUT_S:
                    raise RuntimeError("child exceeded %d s" % CHILD_TIMEOUT_S)
                time.sleep(0.01)
        finally:
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.wait4(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            raise RuntimeError("child failed: %s" % (_read(errpath) or "")[-500:])
        with open(job["record"]) as fh:
            record = json.load(fh)
        if job.get("trace"):
            with open(job["spans"]) as fh:
                record["spans"] = json.load(fh)
            os.remove(job["spans"])
        os.remove(job["record"])
        rss = record.get("peak_rss_mb") or usage.ru_maxrss / 1024
        return record, record["setup_done"] - started, rss


def load_pins():
    with open(os.path.join(HERE, "pinned.json")) as fh:
        return json.load(fh)


def check_pass(workload, seed, smoke, ops, pins):
    """Failure messages per operation label, and the pass's completed items."""
    failures = {}

    def fail(label, message):
        failures.setdefault(label, []).append(message)

    pinned = pins.get(pin_key(workload, seed, smoke))
    if pinned is not None:
        if [p[0] for p in pinned] != [op["label"] for op in ops]:
            for op in ops:
                fail(op["label"], "operation list differs from pinned.json")
        for op, (label, rc, digest) in zip(ops, pinned):
            if op["rc"] != rc:
                fail(op["label"], "exit %r, pinned %r" % (op["rc"], rc))
            if op["digest"] != digest:
                fail(op["label"], "report digest %s, pinned %s" % (op["digest"], digest))
    for op in ops:
        if not isinstance(op["rc"], int) or op["rc"] not in (0, 1):
            fail(op["label"], "exit %r: %s" % (op["rc"], op["stderr"]))
    expected = EXPECTED.get((workload, smoke), {})
    for op in ops:
        for key, value in expected.items():
            if op.get(key) != value:
                fail(op["label"], "%s=%r, expected %r" % (key, op.get(key), value))
    if workload in ("bipartite-scan", "extremal-search"):
        for op in ops:
            if "examined" in op and op["rc"] != (1 if op["counterexamples"] else 0):
                fail(op["label"], "exit code disagrees with the counterexample list")
        items = sum(op.get("examined", 0) for op in ops)
    elif workload == "thm71-scan":
        items = sum(op.get("pairs_checked", 0) for op in ops)
    else:
        items = len(ops)
        by_label = {op["label"]: op for op in ops}
        for op in ops:
            command, name = op["label"].split()
            if command == "trees" and op["rc"] != (0 if op.get("ferrers_good") else 1):
                fail(op["label"], "exit code disagrees with ferrers_good")
            if command == "check":
                if op["rc"] != (0 if all(h is not False for h in op.get("holds", [False]))
                                else 1):
                    fail(op["label"], "exit code disagrees with the bound verdicts")
                if op.get("tau") != by_label.get("trees " + name, {}).get("tau"):
                    fail(op["label"], "tau differs between trees and check --all")
            if command in ("spectral", "resistance") and op["rc"] != 0:
                fail(op["label"], "exit %r" % op["rc"])
    return failures, items


def layer_metrics(record):
    """Flat per-layer metrics of one traced pass."""
    agg = tracer.aggregate(record["spans"]["names"], record["spans"]["spans"])
    wall = record["wall_s"]
    flat = {}
    for name, entry in agg["functions"].items():
        for key in ("calls", "self_s", "total_s", "errors"):
            flat["%s.%s" % (name, key)] = entry[key]
    flat["exactla.matmul.scalar_mults"] = agg["functions"].get(
        "exactla.matmul", {}).get("work", 0)
    for mod, self_s in agg["modules"].items():
        flat[mod + ".self_s"] = self_s
        flat[mod + ".share"] = self_s / wall
    flat.update(agg["derived"])
    d = agg["derived"]
    if d["search.dedupe_inputs"]:
        flat["search.dedupe_yield"] = d["search.classes"] / d["search.dedupe_inputs"]
    if d["search.connectivity_tests"]:
        flat["search.connected_yield"] = (d["search.connected_kept"]
                                          / d["search.connectivity_tests"])
    flat["all.errors"] = sum(e["errors"] for e in agg["functions"].values())
    for name in NAMED_LAYER_METRICS:
        if name not in flat and not name.endswith("_yield"):
            flat[name] = 0
    return flat


def run_workload(runner, workload, seed, seconds, trace, smoke, pins):
    """All passes of one run; returns its result document.

    A new pass starts only while half the previous pass's duration still
    fits in ``seconds``, so a run ends within half a pass of ``seconds``
    (or after one pass).
    """
    job = {"workload": workload, "seed": seed, "smoke": smoke, "trace": trace}
    setups, passes, failures = [], [], []
    attempted = 0
    started = time.monotonic()
    pass_s = 0.0
    while not passes or time.monotonic() - started + pass_s / 2 <= seconds:
        pass_start = time.monotonic()
        try:
            if not trace:
                for _ in range(SETUP_SPAWNS_PER_PASS):
                    setups.append(runner.spawn(dict(job, mode="setup"))[1])
            record, setup_s, rss = runner.spawn(dict(job, mode="run"))
        except RuntimeError as exc:
            attempted += 1
            failures.append({"pass": len(passes), "label": "*", "errors": [str(exc)]})
            passes.append(None)
        else:
            bad, items = check_pass(workload, seed, smoke, record["ops"], pins)
            attempted += len(record["ops"])
            for label, errors in bad.items():
                failures.append({"pass": len(passes), "label": label, "errors": errors})
            setups.append(setup_s)
            passes.append({"record": record, "rss": rss, "items": items})
        pass_s = time.monotonic() - pass_start
    done = [p for p in passes if p is not None]
    failed = len(failures)
    doc = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "passes": len(passes), "attempted": attempted,
        "failed": failed, "failures": failures,
        "correct": failed == 0 and bool(done),
    }
    if not done:
        doc["metrics"] = {}
        return doc
    walls = [p["record"]["wall_s"] for p in done]
    doc["pass_wall_s"] = walls
    if trace:
        layers = [layer_metrics(p["record"]) for p in done]
        names = sorted(set().union(*layers))
        doc["metrics"] = {
            name: {"value": statistics.median_low(l.get(name, 0) for l in layers),
                   "unit": layer_unit(name), "samples": len(layers)}
            for name in names
        }
        doc["traced_wall_s"] = statistics.median(walls)
        doc["modules_with_spans"] = sorted(
            mod for mod in tracer.MODULES
            if any(l.get(mod + ".self_s", 0) > 0 for l in layers))
        doc["waiting"] = WAITING_NOTE
        return doc
    # Percentiles are taken within each pass, then the median over passes:
    # pooled over passes, the top decile would come mostly from the passes
    # that ran while the host was slowest.
    latencies = [[op["seconds"] * 1000 for op in p["record"]["ops"]] for p in done]
    doc["ops_per_pass"] = len(latencies[0])
    values = {
        "wall_s": (statistics.median(walls), len(walls)),
        "setup_s": (statistics.median(setups), len(setups)),
        "items_per_s": (statistics.median(p["items"] / p["record"]["wall_s"] for p in done),
                        len(done)),
        "query_p50_ms": (statistics.median(percentile(l, 50) for l in latencies), len(done)),
        "query_p90_ms": (statistics.median(percentile(l, 90) for l in latencies), len(done)),
        "peak_rss_mb": (statistics.median(p["rss"] for p in done), len(done)),
        "failed_frac": (failed / attempted, attempted),
    }
    doc["metrics"] = {name: {"value": v, "unit": E2E_UNITS[name], "samples": n}
                      for name, (v, n) in values.items()}
    return doc


def print_table(doc):
    print("%s  seed=%d  trace=%d  passes=%d  attempted=%d  failed=%d" % (
        doc["workload"], doc["seed"], doc["trace"], doc["passes"],
        doc["attempted"], doc["failed"]))
    for name, m in doc["metrics"].items():
        print("  %-48s %14.6g %-6s n=%d" % (name, m["value"], m["unit"], m["samples"]))
    if doc["trace"] and doc["metrics"]:
        print("  traced wall_s %.6g s; waiting time not reported: %s"
              % (doc["traced_wall_s"], WAITING_NOTE))
    for f in doc["failures"][:20]:
        print("  FAILED pass %d %s: %s" % (f["pass"], f["label"], "; ".join(f["errors"])),
              file=sys.stderr)


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def result_line(docs, trace, prefix=False):
    """The last stdout line: the BENCHMARK.json metrics of these runs."""
    spec = contract()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for doc in docs:
        for m in wanted:
            key = "%s.%s" % (doc["workload"], m["name"]) if prefix else m["name"]
            got = doc["metrics"].get(m["name"])
            if got is not None:
                metrics[key] = {"value": got["value"], "unit": m["unit"]}
    missing = len(metrics) < len(wanted) * len(docs)
    return {
        "correct": all(d["correct"] for d in docs) and not missing,
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": metrics,
    }


def write_result(path, payload):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def smoke_problems(docs):
    """What the smoke run misses: metrics, units or module spans."""
    spec = contract()
    problems = []
    for doc in docs:
        wanted = spec["per_layer"] + [{"name": n, "unit": layer_unit(n)}
                              for n in NAMED_LAYER_METRICS if not n.endswith("_yield")]
        if not doc["trace"]:
            wanted = spec["end_to_end"] + [{"name": n, "unit": u} for n, u in E2E_UNITS.items()]
        for m in wanted:
            got = doc["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                problems.append("%s trace=%d: %s [%s] not emitted"
                                % (doc["workload"], doc["trace"], m["name"], m["unit"]))
        if not doc["correct"]:
            problems.append("%s trace=%d: incorrect" % (doc["workload"], doc["trace"]))
    covered = set().union(*(d.get("modules_with_spans", ()) for d in docs))
    for mod in tracer.MODULES:
        if mod not in covered:
            problems.append("no spans for module %s" % mod)
    for name in NAMED_LAYER_METRICS:
        if name.endswith("_yield") and not any(name in d["metrics"] for d in docs):
            problems.append("%s never emitted" % name)
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, untraced then traced)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, one pass each, assert every metric and span")
    parser.add_argument("--out", help="result file (default under .perfbench/results)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ferrers_lab", "cli.py")):
        print("perfbench: no src/ferrers_lab in %s; run from a full checkout" % ROOT,
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        print("perfbench: BENCHMARK.json missing", file=sys.stderr)
        return 2
    # a terminated benchmark still kills and reaps its running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    pins = load_pins()
    if args.seconds is None:
        args.seconds = contract()["run_seconds"]
    env = environment()
    workdir = os.path.join(ROOT, ".perfbench", "work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    runner = Runner(workdir)
    try:
        if args.workload and not args.smoke:
            docs = [run_workload(runner, args.workload, args.seed, args.seconds,
                                 bool(args.trace), False, pins)]
            label = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
        else:
            seconds = 0 if args.smoke else args.seconds
            docs = []
            for workload in WORKLOADS:
                for trace in (False, True):
                    docs.append(run_workload(runner, workload, args.seed, seconds,
                                             trace, args.smoke, pins))
            label = "smoke" if args.smoke else "all-seed%d" % args.seed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = (_read("/proc/loadavg") or "").strip()

    for doc in docs:
        print_table(doc)
    overhead = {}
    for untraced, traced in zip(docs[::2], docs[1::2]):
        if untraced["metrics"] and traced["metrics"] and untraced["workload"] == traced["workload"]:
            overhead[untraced["workload"]] = (traced["traced_wall_s"]
                                             - untraced["metrics"]["wall_s"]["value"])
    for workload, seconds in overhead.items():
        print("tracing overhead %-16s %+.4f s (traced wall_s - untraced wall_s)"
              % (workload, seconds))
    with open(os.path.join(HERE, "excluded.json")) as fh:
        excluded = json.load(fh)
    payload = {"environment": env, "args": vars(args), "runs": docs,
               "tracing_overhead_s": overhead, "excluded": excluded}
    write_result(args.out or os.path.join(ROOT, ".perfbench", "results", label + ".json"),
                 payload)

    if args.smoke:
        problems = smoke_problems(docs)
        for problem in problems:
            print("smoke: " + problem, file=sys.stderr)
        line = result_line(docs[::2], False, prefix=True)
        line["correct"] = line["correct"] and not problems
        print(json.dumps(line))
        return 1 if problems else 0
    if len(docs) == 1:
        print(json.dumps(result_line(docs, args.trace)))
    else:
        line = result_line(docs[::2], False, prefix=True)
        traced = result_line(docs[1::2], True, prefix=True)
        line["metrics"].update(traced["metrics"])
        for key in ("attempted", "failed"):
            line[key] += traced[key]
        line["correct"] = line["correct"] and traced["correct"]
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
