"""``churn``: journaled writes beside reads.

A journaled live DL server runs in a child process.  One connection
sends sequenced 5-op insert/delete batches (``OP_UPDATE_SEQ``) on a
fixed schedule; a second sends open-loop reads, most of them from a
hot set far smaller than the cache.  Every publish bumps the epoch and
orphans the hot set's cache entries, so the cache does most of its
work here, and ``live.compiler``, ``kernels.dynamic``, ``live.store``
and ``durability.journal`` work only here.
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import List

from repro import Reachability
from repro.graph.digraph import DiGraph
from repro.graph.generators import novel_acyclic_edges
from repro.server import protocol as proto

from perfbench import driver, serve
from perfbench.common import Metrics, PairSource, log, reference_graph
from perfbench.driver import Request, Spans

SETUP_REPS = 3
READ_RATE = 2000.0
UPDATE_RATE = 0.5
INSERTS = 3
DELETES = 2
HOT_PAIRS = 64
#: Most reads come from the hot set, so most of them hit the cache.
HOT_SHARE = 0.8
CHECK_PAIRS = 20_000
#: The read median is the median of this many consecutive windows' medians.
SEGMENTS = 4


class Inputs:
    """The seed's update stream, hot set and read mix."""

    def __init__(self, graph: DiGraph, seed: int, batches: int) -> None:
        rng = random.Random(seed)
        inserts, _ = novel_acyclic_edges(graph, INSERTS * batches, seed=seed)
        base = [(u, v) for u in range(graph.n) for v in graph.out_adj[u]]
        deletes = rng.sample(base, DELETES * batches)
        self.batches = [
            [("+", u, v) for u, v in inserts[i * INSERTS:(i + 1) * INSERTS]]
            + [("-", u, v) for u, v in deletes[i * DELETES:(i + 1) * DELETES]]
            for i in range(batches)
        ]
        gone = set(deletes)
        self.final = DiGraph.from_edges(
            graph.n, [e for e in base if e not in gone] + inserts
        )
        self.source = PairSource(graph.n, seed + 1)
        self.hot = self.source.take(HOT_PAIRS)
        self._rng = random.Random(seed + 2)
        self.client = f"perfbench-{seed}"

    def reads(self, count: int):
        rng, hot = self._rng, self.hot
        fresh = iter(self.source.take(count))
        return [hot[rng.randrange(len(hot))] if rng.random() < HOT_SHARE else next(fresh)
                for _ in range(count)]


def _measure(session: serve.Session, inputs: Inputs, seconds: float, traced: bool):
    """Reads and updates on one open-loop schedule; returns (reads, updates)."""
    reads = session.queries(inputs.reads(int(READ_RATE * seconds)), conn=0, traced=traced)
    driver.schedule(reads, READ_RATE)
    updates = []
    for seq, ops in enumerate(inputs.batches, start=1):
        payload = proto.encode_update_seq(inputs.client, seq, ops)
        updates.append(session.frame(proto.OP_UPDATE_SEQ, payload, conn=1,
                                     due=(seq - 0.5) / UPDATE_RATE))
    session.open(sorted(reads + updates, key=lambda r: r.due))
    return reads, updates


def _acks(updates: List[Request]) -> List[dict]:
    return [json.loads(r.payload) for r in updates if r.ok]


def _ack_ms(updates: List[Request]) -> List[float]:
    return [(r.done - r.sent) * 1e3 for r in updates if r.ok]


def _verify(session: serve.Session, inputs: Inputs, path: str):
    """Check the server against a fresh build of the churned graph.

    The fresh build is also saved to ``path``.  Returns (wrong answers,
    seconds from graph to artifact on disk, artifact bytes).
    """
    pairs = inputs.hot + inputs.source.take(CHECK_PAIRS)
    reqs = session.closed(session.queries(pairs))
    t0 = time.perf_counter()
    fresh = Reachability(inputs.final, "DL")
    nbytes = fresh.save(path)
    build_s = time.perf_counter() - t0
    return serve.check_answers(reqs, fresh), build_s, nbytes


def run(seed: int, seconds: float, trace: bool, workdir: str, metrics: Metrics,
        info: Metrics, layers: Metrics, spans: Spans):
    """Returns (attempted, failed, wrong answers)."""
    graph = reference_graph()
    # One batch in the middle of each 1/UPDATE_RATE slice of the window;
    # the check's churned graph holds exactly these.
    inputs = Inputs(graph, seed, max(1, round(UPDATE_RATE * seconds)))
    del graph

    setup_s, session, done = serve.start_median(
        "churn", lambda rep: os.path.join(workdir, f"data-{rep}"), False,
        inputs.reads, SETUP_REPS, conns=2,
    )
    try:
        before = session.stats()
        reads, updates = _measure(session, inputs, seconds, False)
        after = session.stats()
        wrong, build_s, index_bytes = _verify(session, inputs,
                                              os.path.join(workdir, "churned.rpro"))
    finally:
        session.stop()
    done.extend(session.requests)

    lat = driver.latencies_ms(reads)
    acks = _ack_ms(updates)
    p50 = driver.segment_pct(driver.split(reads, SEGMENTS), 50)
    log("churn: {} acks p50 {:.1f} p90 {:.1f} ms; reads p50 {:.3f} p95 {:.3f} p99 {:.3f} "
        "p99.9 {:.3f} ms".format(len(acks), driver.pct(acks, 50), driver.pct(acks, 90), p50,
                                 driver.pct(lat, 95), driver.pct(lat, 99), driver.pct(lat, 99.9)))
    metrics.put("setup_s", setup_s, "s")
    metrics.put("rss_mb", session.child.rss_kb / 1024.0, "MB")
    metrics.put("index_bytes", index_bytes, "B")
    info.put("dl_build_s", build_s, "s")
    info.put("update_ack_p50_ms", driver.pct(acks, 50), "ms")
    info.put("update_ack_p90_ms", driver.pct(acks, 90), "ms")
    info.put("read_p50_ms", p50, "ms")
    info.put("read_p95_ms", driver.pct(lat, 95), "ms")

    if trace:
        summaries = _acks(updates)
        n = len(summaries) or 1
        layers.put("live.compiler.apply_ms", sum(
            s["swap_s"] - s.get("compile_s", 0.0) - s.get("publish_s", 0.0)
            for s in summaries) / n * 1e3, "ms")
        layers.put("live.compiler.compile_ms",
                   sum(s.get("compile_s", 0.0) for s in summaries) / n * 1e3, "ms")
        layers.put("live.compiler.changed", sum(s["changed"] for s in summaries) / n, "count")
        layers.put("live.store.publish_ms",
                   sum(s.get("publish_s", 0.0) for s in summaries) / n * 1e3, "ms")
        layers.put("durability.journal.fsyncs",
                   after["durability"]["journal"]["fsyncs"]
                   - before["durability"]["journal"]["fsyncs"], "count")
        layers.put("durability.other_ms", sum(
            a - s["swap_s"] * 1e3 for a, s in zip(acks, summaries)) / n, "ms")
        layers.put("server.batching.mean_batch_pairs", serve.mean_batch(before, after), "count")
        layers.put("load.late_ms.p99", driver.pct(driver.late_ms(reads + updates), 99), "ms")
        t_reads, t_done = _traced_pass(workdir, inputs, seconds, layers, spans)
        done.extend(t_done)
        layers.put("telemetry.overhead_ratio",
                   driver.segment_pct(driver.split(t_reads, SEGMENTS), 50) / p50, "ratio")
    return len(done), driver.failures(done), wrong


def _traced_pass(workdir: str, inputs: Inputs, seconds: float, layers: Metrics,
                 spans: Spans):
    """The same schedule against a child that traces every request."""
    session = serve.start("churn", os.path.join(workdir, "data-traced"), True, inputs.reads,
                          conns=2)
    try:
        before = session.stats()
        reads, updates = _measure(session, inputs, seconds, True)
        after = session.stats()
        traces = session.traces()
    finally:
        session.stop()
    serve.server_layers(before, after, layers)
    append_ms = serve.hist_mean_ms(after, before, "repro_journal_append_seconds")
    layers.put("durability.journal.append_ms", append_ms, "ms")

    totals = serve.trace_spans(reads, traces, spans, "read")
    e2e, attributed = totals["_client_s"], sum(
        v for k, v in totals.items() if not k.startswith("_"))
    for req, s in zip([r for r in updates if r.ok], _acks(updates)):
        top = spans.add("update", req.sent, req.done, op=req.rid)
        t = req.sent
        for layer, dur in (("durability.journal", append_ms / 1e3),
                           ("live.compiler", s["swap_s"] - s.get("publish_s", 0.0)),
                           ("live.store", s.get("publish_s", 0.0))):
            spans.add(layer, t, t + dur, top, req.rid)
            t += dur
            attributed += dur
        e2e += req.done - req.sent
    layers.put("unattributed_ratio", 1.0 - attributed / e2e if e2e else 0.0, "ratio")
    return reads, session.requests
