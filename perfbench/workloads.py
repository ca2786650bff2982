"""The benchmark's workloads: which CLI operations each one runs.

An operation is one ``ferrers_lab.cli.main(argv)`` call, named by a label
that stays the same across runs (graph files live in a scratch directory
whose path changes).  Every workload runs with ``--jobs 1``; only
``graph-queries`` depends on the seed.
"""

from __future__ import annotations

import os
import random

WORKLOADS = ("bipartite-scan", "thm71-scan", "extremal-search", "graph-queries")

#: graph-queries seed whose reports are pinned by digest in pinned.json
DEFAULT_SEED = 0

QUERY_GRAPHS = 24
SMOKE_QUERY_GRAPHS = 2

_JOBS = ["--jobs", "1"]


def _scan(max_vertices):
    return [("verify-ferrers-bound %d" % max_vertices,
             ["verify-ferrers-bound", "--max-vertices", str(max_vertices)] + _JOBS)]


def _thm71(max_n):
    return [("thm71-scan %d" % max_n,
             ["thm71-scan", "--max-n", str(max_n)] + _JOBS)]


def _extremal(smoke):
    ops = [("spectral-search", ["3", "4", "10"])]
    if smoke:
        ops.append(("degree-class", ["2,2,1"]))
    else:
        ops += [
            ("spectral-search", ["4", "6", "14"]),
            # exit 1 expected: the maximizer is a disconnected union of blocks
            ("spectral-search", ["4", "6", "12"]),
            ("degree-class", ["3,3,3,3"]),
            ("degree-class", ["3,3,2,2,1"]),
        ]
    out = []
    for command, values in ops:
        if command == "spectral-search":
            flags = ["--p", values[0], "--q", values[1], "--e", values[2]]
        else:
            flags = ["--D", values[0]]
        out.append(("%s %s" % (command, " ".join(values)), [command] + flags + _JOBS))
    return out


def _connected(m, n, rows):
    """Whether the bipartite graph with biadjacency ``rows`` is connected."""
    seen_rows, seen_cols = 1, 0
    while True:
        cols = seen_cols
        for i in range(m):
            if seen_rows >> i & 1:
                cols |= rows[i]
        grown = seen_rows
        for i in range(m):
            if rows[i] & cols:
                grown |= 1 << i
        if grown == seen_rows and cols == seen_cols:
            return seen_rows == (1 << m) - 1 and cols == (1 << n) - 1
        seen_rows, seen_cols = grown, cols


def query_graphs(seed: int, count: int) -> list:
    """Connected bipartite graphs with 10..22 vertices, as (m, n, rows).

    Sizes and densities are fixed by position so that every seed asks for
    about the same work; the seed picks the edges.  Every fourth graph is a
    staircase from a random partition, the rest are random with density
    0.3..0.7, redrawn until connected.
    """
    rng = random.Random(seed)
    out = []
    for k in range(count):
        v = 10 + (12 * k) // max(1, count - 1)
        m = v // 2 - k % 2
        n = v - m
        if k % 4 == 3:
            parts = sorted((rng.randint(1, n) for _ in range(m - 1)), reverse=True)
            rows = [(1 << p) - 1 for p in [n] + parts]
        else:
            density = 0.3 + 0.1 * (k % 5)
            while True:
                rows = [
                    sum(1 << j for j in range(n) if rng.random() < density)
                    for _ in range(m)
                ]
                if _connected(m, n, rows):
                    break
        out.append((m, n, rows))
    return out


def _write_graph(path, m, n, rows):
    lines = ["bipartite %d %d" % (m, n)]
    lines += [
        "e %d %d" % (i + 1, j + 1)
        for i in range(m)
        for j in range(n)
        if rows[i] >> j & 1
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _queries(seed, smoke, inputs_dir):
    os.makedirs(inputs_dir, exist_ok=True)
    ops = []
    count = SMOKE_QUERY_GRAPHS if smoke else QUERY_GRAPHS
    for k, (m, n, rows) in enumerate(query_graphs(seed, count)):
        name = "q%02d" % k
        path = os.path.join(inputs_dir, name + ".graph")
        _write_graph(path, m, n, rows)
        ops += [
            ("trees " + name, ["trees", "--graph", path]),
            ("spectral " + name, ["spectral", "--graph", path]),
            ("check " + name, ["check", "--graph", path, "--all"]),
            ("resistance " + name,
             ["resistance", "--graph", path, "--pair", "1,%d" % (m + 1)]),
        ]
    return ops


def operations(workload: str, seed: int, smoke: bool, inputs_dir: str) -> list:
    """(label, argv) pairs of one pass; writes graph-queries inputs first."""
    if workload == "bipartite-scan":
        return _scan(6 if smoke else 10)
    if workload == "thm71-scan":
        return _thm71(4 if smoke else 6)
    if workload == "extremal-search":
        return _extremal(smoke)
    if workload == "graph-queries":
        return _queries(seed, smoke, inputs_dir)
    raise ValueError("unknown workload %r" % workload)


def pin_key(workload: str, seed: int, smoke: bool) -> str:
    """Key of the pinned-report table for this run; None when none exists."""
    key = workload + ("/smoke" if smoke else "")
    if workload == "graph-queries":
        if seed != DEFAULT_SEED:
            return None
        key += "/seed%d" % seed
    return key
