"""Self-tests for the benchmark's own machinery.

They run the driver against a fake server and the workloads on a small
graph, so a broken check shows here instead of as a wrong figure.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time

import pytest

from repro.server import protocol as proto

from perfbench import churn, common, driver, paper, run, serve

BENCHMARK = os.path.join(common.ROOT, "BENCHMARK.json")


class FakeServer:
    """Answers every query with ``u <= v``, except the request ids in ``drop``."""

    def __init__(self, drop=()) -> None:
        self.drop = set(drop)
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        conn, _ = self._listener.accept()
        reader = proto.FrameReader(conn)
        with conn:
            while True:
                try:
                    frame = reader.read_frame()
                except OSError:
                    return
                if frame is None:
                    return
                op, rid, payload = frame
                if rid in self.drop:
                    continue
                answers = [u <= v for u, v in proto.decode_pairs(payload)]
                conn.sendall(proto.pack_frame(proto.OP_ANSWERS, rid, proto.encode_answers(answers)))

    def close(self) -> None:
        self._listener.close()
        self._thread.join(timeout=5.0)


class LessEqual:
    """The fake server's oracle."""

    @staticmethod
    def query_batch(pairs):
        return [u <= v for u, v in pairs]


def _open_pass(server, count, rate, before_send=None):
    reqs = driver.query_requests([(i % 7, i % 5) for i in range(count)])
    driver.schedule(reqs, rate)
    with driver.Load([server.address]) as load:
        load.open(reqs, drain_s=0.5, before_send=before_send)
    return reqs


def test_dropped_reply_fails_the_run():
    server = FakeServer(drop={3})
    try:
        reqs = _open_pass(server, 50, 1000.0)
    finally:
        server.close()
    failed = driver.failures(reqs)
    assert failed == 1
    assert failed / len(reqs) > 0
    wrong = serve.check_answers(reqs, LessEqual)
    assert wrong == 0  # the answers that came back are right ...
    assert not run.verdict(len(reqs), failed, wrong)  # ... yet the run fails


def test_refused_connection_counts_every_request():
    free = socket.create_server(("127.0.0.1", 0))
    address = free.getsockname()
    free.close()
    reqs = driver.query_requests([(0, 1)] * 5)
    with driver.Load([address], timeout=1.0) as load:
        assert load.refused == 1
        load.closed(reqs, 4, drain_s=0.2)
    assert driver.failures(reqs) == 5


def test_generator_stall_shows_from_due_time():
    stall_at, stall_s = 20, 0.1

    def before_send(i):
        if i == stall_at:
            time.sleep(stall_s)

    server = FakeServer()
    try:
        reqs = _open_pass(server, 100, 1000.0, before_send)
    finally:
        server.close()
    assert driver.failures(reqs) == 0
    assert driver.pct(driver.late_ms(reqs), 99) >= stall_s * 1e3 * 0.8
    from_due = driver.latencies_ms(reqs)
    stalled = reqs[stall_at]
    # The stalled request and the ones due during the stall waited ...
    assert from_due[stall_at] >= stall_s * 1e3 * 0.9
    # ... which timing from the send would hide.
    assert (stalled.done - stalled.sent) * 1e3 < stall_s * 1e3 * 0.5


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Shrink every workload so a run takes a second or two."""
    monkeypatch.setattr(common, "GRAPH_N", 1500)
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    monkeypatch.setattr(paper, "QUERIES", 2000)
    monkeypatch.setattr(paper, "SETUP_REPS", 2)
    monkeypatch.setattr(paper, "BFS_SAMPLE", 200)
    monkeypatch.setattr(serve, "SETUP_REPS", 1)
    monkeypatch.setattr(serve, "WARM_PAIRS", 500)
    monkeypatch.setattr(serve, "OPEN_RATE", 500.0)
    monkeypatch.setattr(churn, "SETUP_REPS", 1)
    monkeypatch.setattr(churn, "READ_RATE", 300.0)
    monkeypatch.setattr(churn, "UPDATE_RATE", 4.0)
    monkeypatch.setattr(churn, "CHECK_PAIRS", 500)


def _result(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_flipped_answer_bit_exits_nonzero(small, monkeypatch, capsys):
    real = paper.load_warm

    class Flipped:
        def __init__(self, oracle):
            self.oracle = oracle

        def query_batch(self, pairs):
            out = self.oracle.query_batch(pairs)
            out[0] = not out[0]
            return out

    def load_warm(path, warm):
        setup_s, oracle = real(path, warm)
        return setup_s, Flipped(oracle)

    monkeypatch.setattr(paper, "load_warm", load_warm)
    code = run.main(["--workload", "paper", "--seed", "1", "--seconds", "0.1"])
    _, result = _result(capsys)
    assert code != 0
    assert result["correct"] is False


@pytest.mark.parametrize("workload", ["paper", "serve", "churn"])
def test_printed_metrics_are_declared(small, capsys, workload):
    with open(BENCHMARK) as f:
        bench = json.load(f)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace)])
        lines, result = _result(capsys)
        assert code == 0 and result["correct"], lines
        assert result["failed"] == 0 and result["attempted"] > 0
        # Every declared metric, in its unit, and nothing else.
        assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
        for name, m in result["metrics"].items():
            assert any(line.startswith(f"{name} ") for line in lines[:-1]), name
            if trace == 0:
                assert m["value"] > 0, name
