"""Inputs, child processes and result bookkeeping shared by the workloads."""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.generators import citation_dag
from repro.server.client import ReachClient

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The ROADMAP reference graph, citation-40000 (n = 40000, m = 109986).
#: It never depends on the seed, so index sizes compare across changes.
GRAPH_N = 40000
GRAPH_OUT = 3
GRAPH_SEED = 17

Pair = Tuple[int, int]

#: ``query_batch`` batch sizes of the per-layer sweep.
BATCH_SIZES = (1, 16, 64, 256, 4096)

#: The gated end-to-end metrics, name -> unit.  Every workload measures
#: each of them, and none of them is ever 0.
END_TO_END = {"setup_s": "s", "rss_mb": "MB", "index_bytes": "B"}

#: The metrics of a traced run, name -> unit: the ungated end-to-end
#: figures, then one block per layer.  A workload that does not run a
#: layer (or an operation, such as an update) reports 0 for it.
PER_LAYER = {
    "dl_build_s": "s",
    "hl_build_s": "s",
    "hl_index_bytes": "B",
    "query_equal_ns": "ns/pair",
    "query_random_ns": "ns/pair",
    "serve_qps": "q/s",
    "read_p50_ms": "ms",
    "read_p95_ms": "ms",
    "update_ack_p50_ms": "ms",
    "update_ack_p90_ms": "ms",
    "core.order.rank_s": "s",
    "core.distribution.label_s": "s",
    "core.distribution.label_entries": "count",
    "core.hierarchical.label_s": "s",
    "core.hierarchical.label_entries": "count",
    "core.compiled.compile_s": "s",
    "artifact.write_s": "s",
    "artifact.load_ms": "ms",
    "kernels.batchquery.cold_ms": "ms",
    **{f"kernels.batchquery.{kind}_ns.b{size}": "ns/pair"
       for kind in ("equal", "random") for size in BATCH_SIZES},
    "server.protocol.decode_us": "us",
    "server.protocol.encode_us": "us",
    "server.batching.mean_batch_pairs": "count",
    "server.batching.wait_ms": "ms",
    "server.cache.hit_ratio": "ratio",
    "server.cache.lookup_us": "us",
    "server.service.request_ms.p50": "ms",
    "server.service.request_ms.p95": "ms",
    "server.service.dispatch_ms": "ms",
    "live.compiler.apply_ms": "ms",
    "live.compiler.compile_ms": "ms",
    "live.compiler.changed": "count",
    "live.store.publish_ms": "ms",
    "durability.journal.append_ms": "ms",
    "durability.journal.fsyncs": "count",
    "durability.other_ms": "ms",
    "telemetry.overhead_ratio": "ratio",
    "load.late_ms.p99": "ms",
    "unattributed_ratio": "ratio",
    # Mean self time of each benchmark span (run.self_times).
    **{f"{span}.self_ms": "ms" for span in (
        "dl_build", "hl_build", "query_equal", "query_random", "dl_replay", "hl_replay",
        "graph.scc", "core.order", "core.distribution", "core.compiled", "serialization",
        "core.hierarchical", "artifact", "kernels.batchquery", "read", "update",
        "server.protocol", "server.cache", "server.batching", "server.service",
        "server.other", "durability.journal", "live.compiler", "live.store",
    )},
}


def reference_graph(n: Optional[int] = None):
    return citation_dag(n or GRAPH_N, out_per_vertex=GRAPH_OUT, seed=GRAPH_SEED)


class PairSource:
    """Uniform random pairs from a seed, never the same pair twice.

    Every pass draws from one source, so passes are disjoint and the
    result cache never sees a repeated pair.
    """

    def __init__(self, n: int, seed: int) -> None:
        self.n = n
        self._rng = random.Random(seed)
        self._seen = set()

    def take(self, count: int) -> List[Pair]:
        out = []
        rng, n, seen = self._rng, self.n, self._seen
        while len(out) < count:
            pair = (rng.randrange(n), rng.randrange(n))
            if pair not in seen:
                seen.add(pair)
                out.append(pair)
        return out


class Metrics:
    """Named metric values with units, in print order."""

    def __init__(self) -> None:
        self.values: Dict[str, Tuple[float, str]] = {}

    def put(self, name: str, value: float, unit: str) -> None:
        self.values[name] = (float(value), unit)

    def doc(self) -> Dict[str, dict]:
        return {k: {"value": v, "unit": u} for k, (v, u) in self.values.items()}


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def log(msg: str) -> None:
    """Progress goes to stderr; stdout's last line is the result."""
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


class Child:
    """A server child process (``perfbench/child.py``)."""

    def __init__(self, mode: str, where: str, trace: bool) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.child", mode, where, "1" if trace else "0",
             str(GRAPH_N)],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.address: Optional[Tuple[str, int]] = None
        self.rss_kb: Optional[int] = None

    def expect(self, word: str) -> List[str]:
        line = self.proc.stdout.readline().split()
        if not line or line[0] != word:
            raise RuntimeError(f"server child said {line!r}, expected {word!r}")
        return line[1:]

    def go(self) -> None:
        self.proc.stdin.write("go\n")
        self.proc.stdin.flush()

    def wait_ready(self) -> Tuple[str, int]:
        host, port = self.expect("ready")
        self.address = (host, int(port))
        return self.address

    def client(self) -> ReachClient:
        return ReachClient(*self.address, timeout=60.0)

    def stop(self) -> None:
        """Shut the server down and wait for the process to end."""
        if self.proc.poll() is None and self.address is not None:
            try:
                with self.client() as client:
                    client.shutdown_server()
            except (OSError, RuntimeError):
                pass
        try:
            out, _ = self.proc.communicate(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        for line in out.splitlines():
            if line.startswith("rss_kb "):
                self.rss_kb = int(line.split()[1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()
