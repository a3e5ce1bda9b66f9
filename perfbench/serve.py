"""``serve``: the static read path through a server child.

``serve_artifact`` runs in its own process; one connection sends
single-pair requests with fresh uniform-random pairs.  Closed-loop
passes at pipeline depth 64 measure capacity, open-loop passes at a
fixed rate measure latency.  The pairs never repeat and far outnumber
the 64k cache entries, so the cache shows only as overhead.  This
module also holds the server-child plumbing ``churn`` shares.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro import Reachability
from repro.server import protocol as proto
from repro.stats import histogram_percentiles

from perfbench import driver
from perfbench.common import Child, Metrics, PairSource, log, median, reference_graph
from perfbench.driver import Load, Request, Spans
from perfbench.paper import batch_sweep

SETUP_REPS = 3
DEPTH = 64
WARM_PAIRS = 10_000
#: Warm-up passes run until two consecutive rates agree within this share.
WARM_AGREE = 0.10
WARM_MAX = 8
#: About an eighth of the closed-loop capacity on a 2-core host: low
#: enough that a slow spell of the host does not queue requests.
OPEN_RATE = 2000.0
CLOSED_SHARE = 0.4
SEGMENTS = 8

#: Server span -> the layer that owns it; any other span is "server.other".
SPAN_LAYER = {
    "decode": "server.protocol",
    "flush": "server.protocol",
    "cache_lookup": "server.cache",
    "batch_wait": "server.batching",
    "dispatch": "server.service",
}


class Session:
    """A running server child, its connections and every request sent."""

    def __init__(self, child: Child, conns: int = 1) -> None:
        self.child = child
        self.load = Load([child.address] * conns)
        self.requests: List[Request] = []
        self._rid = 0
        self.setup_s = 0.0
        self.warm_rates: List[float] = []

    def queries(self, pairs, conn: int = 0, traced: bool = False) -> List[Request]:
        reqs = driver.query_requests(pairs, self._rid, conn, traced)
        self._rid += len(reqs)
        return reqs

    def frame(self, op: int, payload: bytes, conn: int, due: float = 0.0) -> Request:
        req = Request(self._rid, conn, proto.pack_frame(op, self._rid, payload), due=due)
        self._rid += 1
        return req

    def closed(self, reqs: Sequence[Request], seconds: Optional[float] = None) -> List[Request]:
        sent = self.load.closed(reqs, DEPTH, seconds)
        self.requests.extend(sent)
        return sent

    def open(self, reqs: Sequence[Request]) -> None:
        self.load.open(reqs)
        self.requests.extend(reqs)

    def warm_up(self, take: Callable[[int], list]) -> None:
        """Closed passes of fresh work until consecutive rates agree."""
        rates = self.warm_rates
        while len(rates) < WARM_MAX:
            rates.append(driver.rate_of(self.closed(self.queries(take(WARM_PAIRS)))))
            if len(rates) >= 2 and rates[-2] and abs(rates[-1] / rates[-2] - 1.0) <= WARM_AGREE:
                return

    def stats(self) -> dict:
        with self.child.client() as client:
            return client.stats()

    def traces(self) -> List[dict]:
        with self.child.client() as client:
            return client.traces()

    def stop(self) -> None:
        self.load.close()
        self.child.stop()


def start(mode: str, where: str, trace: bool, take: Callable[[int], list],
          conns: int = 1) -> Session:
    """Start a child and warm it up; ``setup_s`` covers both.

    For ``churn`` the clock starts at ``go``, after the child has built
    the graph; for ``artifact`` it starts when the process is spawned.
    """
    child = Child(mode, where, trace)
    try:
        t0 = child.started
        if mode == "churn":
            child.expect("graph")
            t0 = time.perf_counter()
            child.go()
        child.wait_ready()
        session = Session(child, conns)
        session.warm_up(take)
        session.setup_s = time.perf_counter() - t0
    except BaseException:
        child.kill()
        raise
    return session


def start_median(mode: str, where: Callable[[int], str], trace: bool,
                 take: Callable[[int], list], reps: int, conns: int = 1):
    """Set up ``reps`` times; keep the last session, return the median set-up.

    Requests of the sessions that are stopped still count as attempted.
    """
    setups, done = [], []
    session = None
    for rep in range(reps):
        if session is not None:
            session.stop()
            done.extend(session.requests)
        session = start(mode, where(rep), trace, take, conns)
        setups.append(session.setup_s)
        log(f"{mode}: set-up {session.setup_s:.2f} s, warm-up rates "
            f"{[round(r) for r in session.warm_rates]}")
    return median(setups), session, done


# -- stats documents -------------------------------------------------------
def hist(doc: dict, name: str) -> dict:
    return doc.get("telemetry", {}).get("histograms", {}).get(name) or {}


def hist_diff(after: dict, before: dict) -> dict:
    """The observations a histogram gained between two snapshots."""
    buckets = dict(after.get("buckets", {}))
    for k, c in before.get("buckets", {}).items():
        buckets[k] = buckets.get(k, 0) - c
    return {
        "count": after.get("count", 0) - before.get("count", 0),
        "sum": after.get("sum", 0) - before.get("sum", 0),
        "unit": after.get("unit", "ns"),
        "buckets": {k: c for k, c in buckets.items() if c},
    }


def hist_mean_ms(after: dict, before: dict, name: str) -> float:
    d = hist_diff(hist(after, name), hist(before, name))
    return d["sum"] / d["count"] / 1e6 if d["count"] else 0.0


def mean_batch(before: dict, after: dict) -> float:
    """Pairs per dispatched batch between two snapshots."""
    b0, b1 = before["batcher"], after["batcher"]
    batches = b1["batches"] - b0["batches"]
    return (b1["batched_pairs"] - b0["batched_pairs"]) / batches if batches else 0.0


def cache_hit_ratio(after: dict, before: dict) -> float:
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def server_layers(before: dict, after: dict, layers: Metrics) -> None:
    """Per-layer figures of one pass from the child's own counters."""
    layers.put("server.batching.wait_ms",
               hist_mean_ms(after, before, "repro_batch_wait_seconds"), "ms")
    layers.put("server.cache.hit_ratio", cache_hit_ratio(after, before), "ratio")
    layers.put("server.cache.lookup_us",
               hist_mean_ms(after, before, "repro_cache_lookup_seconds") * 1e3, "us")
    req = histogram_percentiles(
        hist_diff(hist(after, "repro_request_seconds"), hist(before, "repro_request_seconds")),
        (50.0, 95.0),
    )
    layers.put("server.service.request_ms.p50", req.get("p50", 0.0) / 1e6, "ms")
    layers.put("server.service.request_ms.p95", req.get("p95", 0.0) / 1e6, "ms")


def trace_spans(reqs: Sequence[Request], traces: List[dict], spans: Spans,
                top: str) -> Dict[str, float]:
    """Put each traced request and its server spans into ``spans``.

    Returns the seconds per server span name and the client-side total,
    over the requests whose trace the server kept.
    """
    by_rid = {r.rid: r for r in reqs if r.ok}
    totals: Dict[str, float] = {"_requests": 0, "_client_s": 0.0}
    for doc in traces:
        if doc.get("origin") != "client":
            continue
        req = by_rid.get(doc["trace_id"] - 1)
        if req is None:
            continue
        parent = spans.add(top, req.sent, req.done, op=req.rid)
        totals["_requests"] += 1
        totals["_client_s"] += req.done - req.sent
        for s in doc["spans"]:
            start = req.sent + s["offset_ns"] / 1e9
            dur = s["duration_ns"] / 1e9
            spans.add(SPAN_LAYER.get(s["name"], "server.other"), start, start + dur,
                      parent, req.rid)
            totals[s["name"]] = totals.get(s["name"], 0.0) + dur
    return totals


def encode_us(reqs: Sequence[Request]) -> float:
    """Replay the server's answer encoding on the same single-pair replies."""
    bits = [proto.decode_answers(r.payload) for r in reqs if r.op == proto.OP_ANSWERS]
    if not bits:
        return 0.0
    t0 = time.perf_counter()
    for i, b in enumerate(bits):
        proto.pack_frame(proto.OP_ANSWERS, i, proto.encode_answers(b))
    return (time.perf_counter() - t0) / len(bits) * 1e6


def check_answers(reqs: Sequence[Request], oracle) -> int:
    """Served answers that differ from ``oracle`` (a direct query_batch)."""
    pairs, bits = driver.answers(reqs)
    if not pairs:
        return 0
    return sum(a != b for a, b in zip(bits, oracle.query_batch(pairs)))


# -- the workload ----------------------------------------------------------
def _measure(session: Session, source: PairSource, seconds: float, traced: bool):
    """Closed and open passes, alternating over ``SEGMENTS`` rounds.

    Alternating spreads both passes over the whole window, so a slow
    spell of the host hits capacity and latency alike.  A traced run
    skips the closed passes.  Returns the closed requests (one list per
    pass), the open requests (one list per pass), and the batcher's
    pairs per batch over the closed passes (from the child's stats,
    taken between passes).
    """
    closed_s = seconds * CLOSED_SHARE / SEGMENTS
    open_s = seconds * (1.0 - CLOSED_SHARE) / SEGMENTS
    guess = max(session.warm_rates or [20_000.0])
    closed, opened = [], []
    pairs = batches = 0
    for _ in range(SEGMENTS):
        if not traced:
            reqs = session.queries(source.take(int(guess * closed_s * 1.5) + 1000))
            before = session.stats()["batcher"]
            closed.append(session.closed(reqs, closed_s))
            after = session.stats()["batcher"]
            pairs += after["batched_pairs"] - before["batched_pairs"]
            batches += after["batches"] - before["batches"]
        reqs = session.queries(source.take(int(OPEN_RATE * open_s)), traced=traced)
        driver.schedule(reqs, OPEN_RATE)
        session.open(reqs)
        opened.append(reqs)
    return closed, opened, pairs / batches if batches else 0.0


def run(seed: int, seconds: float, trace: bool, workdir: str, metrics: Metrics,
        info: Metrics, layers: Metrics, spans: Spans):
    """Returns (attempted, failed, wrong answers)."""
    graph = reference_graph()
    path = os.path.join(workdir, "dl.rpro")
    t0 = time.perf_counter()
    index_bytes = Reachability(graph, "DL").save(path)
    build_s = time.perf_counter() - t0
    with spans.span("artifact") as s_load:
        direct = Reachability.load(path)
    source = PairSource(graph.n, seed)
    del graph

    setup_s, session, done = start_median(
        "artifact", lambda rep: path, False, source.take, SETUP_REPS
    )
    try:
        closed, opened, batch_pairs = _measure(session, source, seconds, False)
    finally:
        session.stop()
    done.extend(session.requests)

    lat = driver.latencies_ms([r for seg in opened for r in seg])
    qps = driver.segment_rate(closed)
    p50 = driver.segment_pct(opened, 50)
    log("serve: closed {:.0f} q/s (median round); open p50 {:.3f} ms (median round), pooled "
        "p95 {:.3f} p99 {:.3f} p99.9 {:.3f} ms".format(
            qps, p50, driver.pct(lat, 95), driver.pct(lat, 99), driver.pct(lat, 99.9)))
    metrics.put("setup_s", setup_s, "s")
    metrics.put("rss_mb", session.child.rss_kb / 1024.0, "MB")
    metrics.put("index_bytes", index_bytes, "B")
    info.put("dl_build_s", build_s, "s")
    info.put("serve_qps", qps, "q/s")
    info.put("read_p50_ms", p50, "ms")
    info.put("read_p95_ms", driver.segment_pct(opened, 95), "ms")

    wrong = check_answers(done, direct)
    if trace:
        layers.put("artifact.load_ms", s_load.seconds * 1e3, "ms")
        layers.put("server.batching.mean_batch_pairs", batch_pairs, "count")
        layers.put("load.late_ms.p99",
                   driver.pct(driver.late_ms([r for seg in opened for r in seg]), 99), "ms")
        t_open, t_done = _traced_pass(path, source, seconds, layers, spans)
        done.extend(t_done)
        wrong += check_answers(t_done, direct)
        layers.put("telemetry.overhead_ratio", driver.segment_pct(t_open, 50) / p50, "ratio")
        served, _ = driver.answers(closed[-1])
        for size, ns in batch_sweep(direct, served).items():
            layers.put(f"kernels.batchquery.random_ns.b{size}", ns, "ns/pair")
    return len(done), driver.failures(done), wrong


def _traced_pass(path: str, source: PairSource, seconds: float, layers: Metrics,
                 spans: Spans):
    """The open pass against a child that traces every request.

    Returns the open pass's requests and every request sent.
    """
    session = start("artifact", path, True, source.take)
    try:
        before = session.stats()
        _, opened, _ = _measure(session, source, seconds, True)
        after = session.stats()
        traces = session.traces()
    finally:
        session.stop()
    server_layers(before, after, layers)
    flat = [r for seg in opened for r in seg]
    totals = trace_spans(flat, traces, spans, "read")
    n = totals["_requests"] or 1
    layers.put("server.protocol.decode_us", totals.get("decode", 0.0) / n * 1e6, "us")
    layers.put("server.protocol.encode_us", encode_us(flat), "us")
    layers.put("server.service.dispatch_ms", totals.get("dispatch", 0.0) / n * 1e3, "ms")
    server_s = sum(v for k, v in totals.items() if not k.startswith("_"))
    layers.put("unattributed_ratio",
               1.0 - server_s / totals["_client_s"] if totals["_client_s"] else 0.0, "ratio")
    log(f"serve: {totals['_requests']} of {len(flat)} open-loop requests traced")
    return opened, session.requests
