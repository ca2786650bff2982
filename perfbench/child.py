"""One pass of one workload, in a fresh interpreter.

Started by run.py with a JSON job description as its only argument.  It
imports the package from the checkout's ``src``, writes the workload's
inputs, then (unless the job is set-up only) runs every operation through
``ferrers_lab.cli.main`` one after another and writes a JSON record:
set-up end time, wall time, peak memory, and per operation its exit
code, latency and report digest.  Traced jobs also write the spans.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import time


def digest(text: str) -> str:
    """Digest of a report with the wall-time field ``elapsed`` removed."""
    try:
        doc = json.loads(text)
    except ValueError:
        body = text
    else:
        if isinstance(doc, dict):
            doc.pop("elapsed", None)
        body = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def _summary(label, text):
    """The report fields run.py checks beyond the digest."""
    try:
        doc = json.loads(text)
    except ValueError:
        return {}
    command = label.split()[0]
    if command in ("verify-ferrers-bound", "spectral-search", "degree-class"):
        return {"examined": doc["examined"],
                "counterexamples": len(doc["counterexamples"])}
    if command == "thm71-scan":
        return {key: doc[key] for key in
                ("graphs_checked", "pairs_checked", "all_agree_everywhere")}
    if command == "trees":
        return {"tau": doc["tau"], "ferrers_good": doc["ferrers_good"]}
    if command == "check":
        return {"tau": [r["lhs"] for r in doc["reports"] if r["name"] == "eq3"][0],
                "holds": [r["holds"] for r in doc["reports"]]}
    return {}


def peak_rss_mb():
    """Peak resident set of this interpreter, or None without /proc.

    ``wait4``'s ru_maxrss is not used: a child started by posix_spawn
    shares the parent's memory until exec, and the kernel carries the
    parent's peak into the child's ru_maxrss.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def main(job):
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import ferrers_lab
    import ferrers_lab.cli
    from workloads import operations

    if os.path.dirname(os.path.abspath(ferrers_lab.__file__)) != os.path.join(src, "ferrers_lab"):
        raise SystemExit("ferrers_lab imported from %s, not from %s" % (ferrers_lab.__file__, src))
    ops = operations(job["workload"], job["seed"], job["smoke"], job["inputs"])
    setup_done = time.monotonic()
    record = {"setup_done": setup_done}
    if job["mode"] == "run":
        tracer = None
        if job["trace"]:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        main_fn = ferrers_lab.cli.main
        outputs = []
        first = time.perf_counter()
        for run_id, (label, argv) in enumerate(ops):
            if tracer is not None:
                tracer.run_id = run_id
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = main_fn(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # counted as a failed operation
                rc = "%s: %s" % (type(exc).__name__, exc)
            outputs.append((label, rc, time.perf_counter() - start, out.getvalue(),
                            err.getvalue()))
        record["wall_s"] = time.perf_counter() - first
        record["ops"] = [
            {"label": label, "rc": rc, "seconds": seconds, "digest": digest(text),
             "stderr": errtext[-300:], **_summary(label, text)}
            for label, rc, seconds, text, errtext in outputs
        ]
        if tracer is not None:
            tracer.dump(job["spans"])
        record["peak_rss_mb"] = peak_rss_mb()
    with open(job["record"], "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
