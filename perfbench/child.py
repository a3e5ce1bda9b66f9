"""Server side of the benchmark, run as its own process.

``python -m perfbench.child artifact PATH TRACE N`` serves a saved
artifact with ``serve_artifact``; ``python -m perfbench.child churn
DATA_DIR TRACE N`` builds the reference graph on N vertices, waits for ``go`` on stdin
(so generating the graph stays out of the set-up time), then serves a
journaled live DL index exactly as ``Reachability.serve(live=True,
data_dir=...)`` assembles it.  Either way the child prints
``ready HOST PORT`` once it listens, serves until a client sends
``OP_SHUTDOWN`` or its stdin closes, and prints ``rss_kb N`` (its peak
RSS) on the way out.

With TRACE=1 every request is timed and traced
(``Telemetry(sample_every=1, latency_every=1)``); with TRACE=0 the
server runs with telemetry as shipped.
"""

from __future__ import annotations

import resource
import sys
import threading

#: Slowest-trace exemplars a traced child keeps for ``OP_TRACE``: more
#: than a traced run sends, so every traced request comes back.
KEEP_TRACES = 1 << 17


def _telemetry(trace: bool):
    if not trace:
        return True
    from repro.telemetry import Telemetry

    return Telemetry(sample_every=1, latency_every=1, keep_traces=KEEP_TRACES)


def serve_saved(path: str, trace: bool):
    from repro.server.service import serve_artifact

    return serve_artifact(path, telemetry=_telemetry(trace))


def serve_churn(data_dir: str, trace: bool, n: int):
    from repro import Reachability
    from repro.durability import JournaledPrimary
    from repro.live import IncrementalCompiler
    from repro.server.service import QueryService, ReachServer

    from perfbench.common import reference_graph

    graph = reference_graph(n)
    print("graph", flush=True)
    if sys.stdin.readline().strip() != "go":
        raise SystemExit(2)
    reach = Reachability(graph, "DL")
    primary = JournaledPrimary(
        data_dir, compiler=IncrementalCompiler.from_pipeline(reach), sync="interval"
    )
    service = QueryService(primary=primary, telemetry=_telemetry(trace))
    try:
        service.start()
        server = ReachServer(service, "127.0.0.1", 0, owns_service=True)
        server.cleanup_callbacks.append(primary.close)
        return server.start()
    except BaseException:
        service.close()
        primary.close()
        raise


def main(argv) -> int:
    mode, where, trace, n = argv[0], argv[1], argv[2] == "1", int(argv[3])
    if mode == "artifact":
        server = serve_saved(where, trace)
    else:
        server = serve_churn(where, trace, n)
    host, port = server.address
    print(f"ready {host} {port}", flush=True)
    # The parent holds our stdin open for as long as it lives: if it dies
    # without shutting us down, EOF on stdin does.
    threading.Thread(target=lambda: (sys.stdin.read(), server.close()), daemon=True).start()
    server.wait()
    server.close()
    print(f"rss_kb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
