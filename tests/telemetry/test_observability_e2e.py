"""End-to-end observability: wire tracing, HTTP scrape paths, stats v2.

Servers here force ``Telemetry(sample_every=1, latency_every=1)`` —
production defaults sample 1-in-256 / 1-in-32, which on a short test
workload records nothing deterministic.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.facade import Reachability
from repro.graph.generators import random_dag
from repro.server.client import ReachClient
from repro.server.service import HttpFrontend, QueryService, ReachServer
from repro.telemetry import Telemetry

from tests.telemetry.test_metrics import _parse_prometheus


def _sample_all() -> Telemetry:
    return Telemetry(sample_every=1, latency_every=1)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    graph = random_dag(120, 320, seed=3)
    reach = Reachability(graph, "DL")
    path = str(tmp_path_factory.mktemp("obs") / "obs.rpro")
    reach.save(path)
    pairs = [(i % 120, (i * 7 + 3) % 120) for i in range(200)]
    expected = [bool(a) for a in reach.query_batch(pairs)]
    return path, pairs, expected


@pytest.fixture()
def traced_server(artifact):
    path, _, _ = artifact
    # cache_size=0 keeps every traced request on the full batcher →
    # dispatch path instead of answering from the LRU.
    service = QueryService(
        path, workers=0, telemetry=_sample_all(), cache_size=0
    ).start()
    server = ReachServer(service, owns_service=True).start()
    yield server
    server.close()


class TestWireTracing:
    def test_traced_query_exemplar_has_named_spans(self, traced_server, artifact):
        _, pairs, expected = artifact
        with ReachClient(*traced_server.address) as client:
            answers, trace_id = client.query_batch_traced(pairs)
            assert answers == expected
            # The trace is offered *after* the reply flush (the flush
            # span has to be timed first), so give the server thread a
            # beat to land it in the sampler.
            deadline = time.monotonic() + 5.0
            ours = []
            while not ours and time.monotonic() < deadline:
                traces = client.traces()
                ours = [t for t in traces if t["trace_id"] == trace_id]
                if not ours:
                    time.sleep(0.01)
        assert ours, f"trace {trace_id} not retained among {len(traces)}"
        doc = ours[0]
        assert doc["origin"] == "client"
        assert doc["duration_ns"] >= 0
        names = [s["name"] for s in doc["spans"]]
        # the acceptance bar is >= 4 named pipeline stages
        assert {"decode", "cache_lookup", "batch_wait", "dispatch"} <= set(
            names
        ), names
        for span in doc["spans"]:
            assert span["offset_ns"] >= 0
            assert span["duration_ns"] >= 0

    def test_server_autotraces_without_client_ids(self, traced_server, artifact):
        _, pairs, expected = artifact
        with ReachClient(*traced_server.address) as client:
            assert client.query_batch(pairs) == expected
            traces = client.traces()
        assert any(t["origin"] == "server" for t in traces)

    def test_stats_v2_reports_sampled_histograms(self, traced_server, artifact):
        _, pairs, _ = artifact
        with ReachClient(*traced_server.address) as client:
            client.query_batch(pairs)
            doc = client.stats()
        assert doc["stats_version"] == 2
        tel = doc["telemetry"]
        hist = tel["histograms"]["repro_request_seconds"]
        assert hist["count"] >= 1
        assert hist["unit"] == "ns"
        assert tel["traces"]["keep"] > 0

    def test_traced_query_works_with_telemetry_off(self, artifact):
        path, pairs, expected = artifact
        service = QueryService(path, workers=0, telemetry=False).start()
        server = ReachServer(service, owns_service=True).start()
        try:
            with ReachClient(*server.address) as client:
                answers, _ = client.query_batch_traced(pairs)
                assert answers == expected
                assert client.traces() == []
                assert "telemetry" not in client.stats()
        finally:
            server.close()


class _BoomStats:
    """Delegates everything to the real oracle except ``stats``."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def stats(self):
        raise RuntimeError("stats backend gone")


class TestStatsDegradation:
    def test_broken_subsection_is_named_not_swallowed(self, artifact):
        path, pairs, expected = artifact
        boom = _BoomStats(Reachability.load(path))
        service = QueryService(oracle=boom, telemetry=_sample_all()).start()
        try:
            assert service.query_pairs(pairs) == expected  # serving survives
            doc = service.stats()
            assert doc["degraded"] == ["oracle"]
            assert "oracle" not in doc
            errors = doc["telemetry"]["counters"]["repro_stats_errors_total"]
            assert errors >= 1
        finally:
            service.close()


@pytest.fixture()
def http_server(artifact):
    path, _, _ = artifact
    service = QueryService(path, workers=0, telemetry=_sample_all()).start()
    http = HttpFrontend(service).start()
    yield service, http
    http.close()
    service.close()


def _get(http, route):
    url = f"http://{http.host}:{http.port}{route}"
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, resp.headers, resp.read()


class TestHttpScrape:
    def test_get_stats_is_v2_json(self, http_server):
        _, http = http_server
        status, headers, body = _get(http, "/stats")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        doc = json.loads(body)
        assert doc["stats_version"] == 2
        assert "telemetry" in doc

    def test_get_metrics_is_prometheus_text(self, http_server):
        service, http = http_server
        # put traffic through the service so histograms have content
        service.query_pairs([(0, 1), (2, 3)])
        status, headers, body = _get(http, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == "text/plain; version=0.0.4"
        samples = _parse_prometheus(body.decode("utf-8"))
        buckets = samples["repro_request_seconds_bucket"]
        assert buckets[-1][0].endswith('le="+Inf"}')
        assert buckets[-1][1] >= 1
        assert samples["repro_stats_requests"][0][1] >= 1
        # the registry renders once, as typed series, not again as
        # flattened ``stats()["telemetry"]`` gauges
        assert samples["repro_request_seconds_count"][0][1] >= 1
        assert not [s for s in samples if s.startswith("repro_stats_telemetry_")]

    def test_get_traces_returns_exemplars(self, http_server):
        service, http = http_server
        service.query_pairs([(0, 1)])
        status, _, body = _get(http, "/traces")
        assert status == 200
        doc = json.loads(body)
        assert isinstance(doc["traces"], list)
        assert doc["traces"], "forced sampling should retain an exemplar"
        assert doc["traces"][0]["spans"]

    def test_unknown_route_is_404(self, http_server):
        _, http = http_server
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(http, "/nope")
        assert err.value.code == 404

    def test_malformed_query_is_400(self, http_server):
        _, http = http_server
        url = f"http://{http.host}:{http.port}/query"
        req = urllib.request.Request(
            url, data=b"this is not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400
