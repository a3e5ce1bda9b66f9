"""``paper``: the paper's own tables, in-process, no server.

Builds DL and HL from the reference graph, writes each artifact,
mmap-loads the DL artifact and answers 100k ``equal`` and 100k
``random`` pairs (paper §6.1, Tables 2-7, Figures 3-4).  The serve,
live and durability layers do no work here.
"""

from __future__ import annotations

import os
import random
import resource
import time
from typing import Tuple

from repro import Reachability
from repro.core.distribution import DistributionLabeling
from repro.core.hierarchical import HierarchicalLabeling
from repro.core.order import get_order
from repro.datasets.workloads import equal_workload, random_workload
from repro.graph.scc import condense
from repro.graph.traversal import bfs_reaches
from repro.serialization import save_artifact

from perfbench.common import BATCH_SIZES, Metrics, log, median, reference_graph
from perfbench.driver import Spans

QUERIES = 100_000
SETUP_REPS = 5
#: Set-up queries the warm set this many times after the load: the first
#: batch builds the lazy query structures (~0.25 s on citation-40000),
#: the second shows them warm (~0.03 s).  A fixed count, so set-up is
#: the same work every time.
WARM_BATCHES = 2
BFS_SAMPLE = 1000
#: Pairs per batch-size cell (b1 gets fewer: each call costs a dispatch).
SWEEP_PAIRS = {1: 20_000}
SWEEP_DEFAULT = 60_000


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def _build(graph, method: str, path: str) -> Tuple[float, int, Reachability]:
    """Seconds from graph to artifact on disk, bytes written, the index."""
    t0 = time.perf_counter()
    reach = Reachability(graph, method)
    nbytes = reach.save(path)
    return time.perf_counter() - t0, nbytes, reach


def load_warm(path: str, warm_pairs) -> Tuple[float, Reachability]:
    """Load an artifact and query the warm set ``WARM_BATCHES`` times.

    Returns (set-up seconds, the loaded oracle).
    """
    t0 = time.perf_counter()
    oracle = Reachability.load(path)
    times = [_timed(oracle.query_batch, warm_pairs)[0] for _ in range(WARM_BATCHES)]
    setup_s = time.perf_counter() - t0
    log("paper: set-up {:.3f} s, warm-up batches {}".format(
        setup_s, [round(t, 4) for t in times]))
    return setup_s, oracle


def batch_sweep(oracle, pairs):
    """ns/pair of ``query_batch`` at each batch size, on warm state."""
    out = {}
    for size in BATCH_SIZES:
        cell = pairs[: SWEEP_PAIRS.get(size, SWEEP_DEFAULT)]
        cell = cell[: len(cell) - len(cell) % size] or cell[:size]
        t0 = time.perf_counter()
        for i in range(0, len(cell), size):
            oracle.query_batch(cell[i:i + size])
        out[size] = (time.perf_counter() - t0) / len(cell) * 1e9
    return out


def run(seed: int, seconds: float, trace: bool, workdir: str, metrics: Metrics,
        info: Metrics, layers: Metrics, spans: Spans):
    """Returns (attempted, failed, wrong answers)."""
    graph = reference_graph()
    dl_path = os.path.join(workdir, "dl.rpro")
    hl_path = os.path.join(workdir, "hl.rpro")
    dl_times, hl_times = [], []
    eq_t, rnd_t = [], []

    def build(method, path, times):
        with spans.span(f"{method.lower()}_build"):
            build_s, nbytes, index = _build(graph, method, path)
        times.append(build_s)
        log(f"paper: {method} {build_s:.2f} s {nbytes} B")
        return nbytes, index

    def query_round():
        # Every loaded instance answers both sets once.
        nonlocal eq_ans, rnd_ans
        for oracle in oracles:
            with spans.span("query_equal"):
                t, eq_ans = _timed(oracle.query_batch, equal)
            eq_t.append(t)
            with spans.span("query_random"):
                t, rnd_ans = _timed(oracle.query_batch, rand)
            rnd_t.append(t)

    # The window holds two build cycles with query rounds spread between
    # and after them, so slow drifts of the host's speed hit every metric
    # alike.  The query sets (the equal set needs a DL oracle) and the
    # set-ups are made outside it.
    t0 = time.perf_counter()
    dl_bytes, dl = build("DL", dl_path, dl_times)
    hl_bytes, _ = build("HL", hl_path, hl_times)
    spent = time.perf_counter() - t0
    equal = equal_workload(graph, QUERIES, seed=seed, oracle=dl).pairs
    rand = random_workload(graph, QUERIES, seed=seed + 1).pairs
    warm = random_workload(graph, QUERIES // 4, seed=seed + 2).pairs
    del dl  # later cycles then peak at the same RSS

    setups, oracles = [], []
    for _ in range(SETUP_REPS):
        setup_s, oracle = load_warm(dl_path, warm)
        setups.append(setup_s)
        oracles.append(oracle)

    eq_ans = rnd_ans = None
    t0 = time.perf_counter()
    query_round()
    build("DL", dl_path + "-2", dl_times)  # the first artifacts stay mapped
    query_round()
    build("HL", hl_path + "-2", hl_times)
    query_round()
    while spent + time.perf_counter() - t0 < seconds:
        query_round()
    log(f"paper: {len(eq_t)} query passes per set")

    # DL against HL on every pair, and both against BFS on a sample.
    hl_oracle = Reachability.load(hl_path)
    wrong = sum(a != b for a, b in zip(eq_ans, hl_oracle.query_batch(equal)))
    wrong += sum(a != b for a, b in zip(rnd_ans, hl_oracle.query_batch(rand)))
    rng = random.Random(seed)
    sample = rng.sample(range(QUERIES), BFS_SAMPLE)
    out_adj = graph.out_adj
    for i in sample:
        wrong += eq_ans[i] != bfs_reaches(out_adj, *equal[i])
        wrong += rnd_ans[i] != bfs_reaches(out_adj, *rand[i])
    attempted = len(eq_t) * len(equal) + len(rnd_t) * len(rand)

    metrics.put("setup_s", median(setups), "s")
    metrics.put("rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics.put("index_bytes", dl_bytes, "B")
    info.put("hl_index_bytes", hl_bytes, "B")
    info.put("dl_build_s", median(dl_times), "s")
    info.put("hl_build_s", median(hl_times), "s")
    info.put("query_equal_ns", median(eq_t) / len(equal) * 1e9, "ns/pair")
    info.put("query_random_ns", median(rnd_t) / len(rand) * 1e9, "ns/pair")

    if trace:
        _layers(graph, median(dl_times), dl_path, workdir, equal, rand, oracle, layers, spans)
    return attempted, 0, wrong


def _layers(graph, dl_s, dl_path, workdir, equal, rand, oracle, layers: Metrics,
            spans: Spans) -> None:
    """Replay each construction stage through its public function."""
    with spans.span("dl_replay"):
        with spans.span("graph.scc") as s_scc:
            dag = condense(graph).dag
        with spans.span("core.distribution") as s_dist:
            index = DistributionLabeling(dag)  # ranks, labels and seals
        with spans.span("core.compiled") as s_comp:
            compiled = index.compile()
        with spans.span("serialization") as s_write:
            save_artifact(compiled, os.path.join(workdir, "dl-replay.rpro"))
    # The ranking alone, outside the build it is part of.
    with spans.span("core.order") as s_order:
        get_order("degree_product")(dag, 0)
    with spans.span("hl_replay"):
        with spans.span("core.hierarchical") as s_hl:
            hl = HierarchicalLabeling(dag)
    with spans.span("artifact") as s_load:
        loaded = Reachability.load(dl_path)
    with spans.span("kernels.batchquery") as s_cold:
        loaded.query_batch(equal)

    stages = sum(s.seconds for s in (s_scc, s_dist, s_comp, s_write))
    layers.put("core.order.rank_s", s_order.seconds, "s")
    layers.put("core.distribution.label_s", s_dist.seconds, "s")
    layers.put("core.distribution.label_entries", index.labels.size_ints(), "count")
    layers.put("core.hierarchical.label_s", s_hl.seconds, "s")
    layers.put("core.hierarchical.label_entries", hl.index_size_ints(), "count")
    layers.put("core.compiled.compile_s", s_comp.seconds, "s")
    layers.put("artifact.write_s", s_write.seconds, "s")
    layers.put("artifact.load_ms", s_load.seconds * 1e3, "ms")
    layers.put("kernels.batchquery.cold_ms", s_cold.seconds * 1e3, "ms")
    for name, pairs in (("equal", equal), ("random", rand)):
        for size, ns in batch_sweep(oracle, pairs).items():
            layers.put(f"kernels.batchquery.{name}_ns.b{size}", ns, "ns/pair")
    layers.put("unattributed_ratio", 1.0 - stages / dl_s, "ratio")
