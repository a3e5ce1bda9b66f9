"""Load driver and span recorder for the benchmark.

The driver speaks the server's binary wire protocol directly over at
most two connections, with two threads: the calling thread sends, one
reader thread parses replies from every connection.  It differs from
``repro.server.client.run_load`` in the two ways a benchmark needs:

* open-loop requests are timed from the time they were *due*, not
  from the time the sender got round to them, so a stall in the
  generator or the server shows in every request it delays, and the
  sender's own lateness is reported;
* a request that gets no reply, an error reply or a refused connection
  is a failure; it is never filled in with a default answer.
"""

from __future__ import annotations

import selectors
import socket
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.server import protocol as proto
from repro.stats import percentiles

Pair = Tuple[int, int]

#: Ops whose reply means the request was served.
OK_REPLIES = (proto.OP_ANSWERS, proto.OP_UPDATE_REPLY)


class Spans:
    """Benchmark-side spans: name, start, end, parent and an operation id.

    Spans stay in memory; :meth:`records` hands them out when the run
    ends.  Self time is a span's duration minus the part of it that
    its child spans cover.
    """

    def __init__(self) -> None:
        self._records: List[dict] = []
        self._stack: List[int] = []

    def span(self, name: str, op: Optional[int] = None) -> "_Span":
        return _Span(self, name, op)

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, op: Optional[int] = None) -> int:
        """Record a finished span; returns its index (usable as a parent)."""
        self._records.append(
            {"name": name, "start": start, "end": end, "parent": parent, "op": op}
        )
        return len(self._records) - 1

    def records(self) -> List[dict]:
        return list(self._records)

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        child_cover: Dict[int, float] = {}
        for r in self._records:
            if r["parent"] is not None:
                child_cover[r["parent"]] = (
                    child_cover.get(r["parent"], 0.0) + r["end"] - r["start"]
                )
        out: Dict[str, float] = {}
        for i, r in enumerate(self._records):
            own = max(0.0, r["end"] - r["start"] - child_cover.get(i, 0.0))
            out[r["name"]] = out.get(r["name"], 0.0) + own
        return out


class _Span:
    __slots__ = ("_spans", "name", "op", "start", "end", "index")

    def __init__(self, spans: Spans, name: str, op: Optional[int]) -> None:
        self._spans = spans
        self.name = name
        self.op = op

    def __enter__(self) -> "_Span":
        stack = self._spans._stack
        self.index = self._spans.add(
            self.name, time.perf_counter(), 0.0,
            stack[-1] if stack else None, self.op,
        )
        stack.append(self.index)
        self.start = self._spans._records[self.index]["start"]
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self._spans._records[self.index]["end"] = self.end
        self._spans._stack.pop()

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Request:
    """One wire request and what became of it."""

    __slots__ = ("rid", "conn", "frame", "pairs", "due", "sent", "done", "op",
                 "payload")

    def __init__(self, rid: int, conn: int, frame: bytes,
                 pairs: Optional[Sequence[Pair]] = None, due: float = 0.0) -> None:
        self.rid = rid
        self.conn = conn
        self.frame = frame
        self.pairs = pairs
        self.due = due  # open loop: offset from the schedule start
        self.sent: Optional[float] = None
        self.done: Optional[float] = None
        self.op: Optional[int] = None
        self.payload: bytes = b""

    @property
    def ok(self) -> bool:
        return self.op in OK_REPLIES


def query_requests(pairs: Sequence[Pair], first_rid: int = 0, conn: int = 0,
                   traced: bool = False) -> List[Request]:
    """One single-pair request per pair, pre-encoded so sending is cheap.

    ``traced`` sends ``OP_QUERY_TRACED`` with the request id as the
    trace id, so the server's exemplars can be matched to requests.
    """
    out = []
    for i, pair in enumerate(pairs):
        rid = first_rid + i
        if traced:
            frame = proto.pack_frame(
                proto.OP_QUERY_TRACED, rid, proto.encode_traced_query(rid + 1, [pair])
            )
        else:
            frame = proto.pack_frame(proto.OP_QUERY, rid, proto.encode_pairs([pair]))
        out.append(Request(rid, conn, frame, (pair,)))
    return out


class Load:
    """Connections plus the reader thread that matches replies to requests."""

    def __init__(self, addresses: Sequence[Tuple[str, int]], timeout: float = 10.0) -> None:
        self.socks: List[socket.socket] = []
        self.refused = 0
        for host, port in addresses:
            try:
                sock = socket.create_connection((host, port), timeout=timeout)
            except OSError:
                self.refused += 1
                self.socks.append(None)
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(60.0)
            self.socks.append(sock)
        # Per-connection receive buffers outlive a pass: a reply that
        # arrives after its pass gave up on it must not cut the next frame.
        self._bufs = {i: bytearray() for i, sock in enumerate(self.socks) if sock is not None}
        self._pending: Dict[Tuple[int, int], Request] = {}
        self._lock = threading.Lock()
        self._on_reply: Optional[Callable[[Request], None]] = None

    def close(self) -> None:
        for sock in self.socks:
            if sock is not None:
                sock.close()

    def __enter__(self) -> "Load":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reader ----------------------------------------------------------
    def _read_loop(self, stop: threading.Event) -> None:
        sel = selectors.DefaultSelector()
        live = set(self._bufs)
        for index in live:
            # Sockets stay blocking: the sender's sendall must wait for
            # buffer space, and a recv after select never blocks.
            sel.register(self.socks[index], selectors.EVENT_READ, index)
        try:
            while live and not (stop.is_set() and not self._pending):
                for key, _ in sel.select(timeout=0.01):
                    index = key.data
                    try:
                        chunk = key.fileobj.recv(1 << 16)
                    except OSError:
                        chunk = b""
                    now = time.perf_counter()
                    if not chunk:  # closed: whatever it still owed never arrives
                        sel.unregister(key.fileobj)
                        live.discard(index)
                        continue
                    buf = self._bufs[index]
                    buf += chunk
                    self._parse(index, buf, now)
        finally:
            sel.close()

    def _parse(self, index: int, buf: bytearray, now: float) -> None:
        head = proto.HEADER.size
        while len(buf) >= head:
            length, op, rid = proto.unpack_header(buf)
            if len(buf) < head + length:
                return
            payload = bytes(buf[head:head + length])
            del buf[:head + length]
            with self._lock:
                req = self._pending.pop((index, rid), None)
            if req is None:
                continue
            req.done = now
            req.op = op
            req.payload = payload
            if self._on_reply is not None:
                self._on_reply(req)

    # -- passes ----------------------------------------------------------
    def _send(self, group: List[Request], now: float) -> None:
        by_conn: Dict[int, List[Request]] = {}
        for req in group:
            by_conn.setdefault(req.conn, []).append(req)
        for index, reqs in by_conn.items():
            sock = self.socks[index]
            with self._lock:
                for req in reqs:
                    req.sent = now
                    if sock is not None:
                        self._pending[(index, req.rid)] = req
            if sock is None:
                continue
            try:
                sock.sendall(b"".join(r.frame for r in reqs))
            except OSError:
                with self._lock:
                    for req in reqs:
                        self._pending.pop((index, req.rid), None)

    def _run(self, sender: Callable[[], None], drain_s: float) -> None:
        stop = threading.Event()
        reader = threading.Thread(target=self._read_loop, args=(stop,), daemon=True)
        reader.start()
        try:
            sender()
            deadline = time.perf_counter() + drain_s
            while self._pending and time.perf_counter() < deadline and reader.is_alive():
                time.sleep(0.002)
        finally:
            stop.set()
            with self._lock:
                self._pending.clear()  # unanswered after the drain: failed
            reader.join(timeout=drain_s + 1.0)

    def closed(self, requests: Sequence[Request], depth: int,
               seconds: Optional[float] = None, drain_s: float = 5.0) -> List[Request]:
        """Closed loop: keep ``depth`` requests in flight; returns those sent.

        Stops sending at ``seconds`` (or when ``requests`` run out).
        """
        slots = threading.Semaphore(depth)
        self._on_reply = lambda req: slots.release()
        sent: List[Request] = []

        def sender() -> None:
            end = None if seconds is None else time.perf_counter() + seconds
            i = 0
            while i < len(requests):
                if not slots.acquire(timeout=drain_s):
                    break  # nothing came back for drain_s: the rest is failed
                group = [requests[i]]
                i += 1
                while i < len(requests) and slots.acquire(blocking=False):
                    group.append(requests[i])
                    i += 1
                self._send(group, time.perf_counter())
                sent.extend(group)
                if end is not None and time.perf_counter() >= end:
                    break

        try:
            self._run(sender, drain_s)
        finally:
            self._on_reply = None
        return sent

    def open(self, requests: Sequence[Request], drain_s: float = 5.0,
             before_send: Optional[Callable[[int], None]] = None) -> None:
        """Open loop: send each request at its ``due`` offset.

        ``req.due`` becomes absolute (``t0 + offset``) so latencies and
        lateness are read straight off the request.  ``before_send(i)``
        runs before request ``i`` is sent (a test hook for stalls).
        """
        t0 = time.perf_counter() + 0.01
        for req in requests:
            req.due += t0

        def sender() -> None:
            i = 0
            n = len(requests)
            while i < n:
                wait = requests[i].due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                if before_send is not None:
                    before_send(i)
                now = time.perf_counter()
                group = [requests[i]]
                i += 1
                while i < n and requests[i].due <= now:
                    group.append(requests[i])
                    i += 1
                self._send(group, now)

        self._run(sender, drain_s)


def schedule(requests: Sequence[Request], rate: float) -> None:
    """Space ``requests`` evenly at ``rate`` per second from offset 0."""
    for i, req in enumerate(requests):
        req.due = i / rate


def rate_of(*passes: Sequence[Request]) -> float:
    """Answered requests per second over one or more passes.

    Each pass's time runs from its first send to its last reply.
    """
    answered = 0
    wall = 0.0
    for requests in passes:
        done = [r.done for r in requests if r.ok]
        sent = [r.sent for r in requests if r.sent is not None]
        if done and sent:
            answered += len(done)
            wall += max(done) - min(sent)
    return answered / wall if wall > 0 else 0.0


def latencies_ms(requests: Sequence[Request]) -> List[float]:
    """Latency of every answered request, from its due time."""
    return [(r.done - r.due) * 1000.0 for r in requests if r.ok]


def late_ms(requests: Sequence[Request]) -> List[float]:
    """How late the sender sent each request after its due time."""
    return [max(0.0, (r.sent - r.due) * 1000.0) for r in requests if r.sent is not None]


def pct(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (the convention ``repro.stats`` reports)."""
    return percentiles(samples, (p,))[f"p{p:g}"]


def split(requests: Sequence[Request], parts: int) -> List[Sequence[Request]]:
    """``requests`` cut into ``parts`` consecutive runs of equal length."""
    n = len(requests)
    return [requests[i * n // parts:(i + 1) * n // parts] for i in range(parts)]


def segment_pct(segments: Sequence[Sequence[Request]], p: float) -> float:
    """Median over segments of each segment's latency percentile (from due).

    A slow spell of the host that covers a minority of the segments does
    not move it.
    """
    return statistics.median(
        pct(latencies_ms(seg), p) for seg in segments if any(r.ok for r in seg)
    )


def segment_rate(segments: Sequence[Sequence[Request]]) -> float:
    """Median over closed-loop passes of each pass's answered rate."""
    return statistics.median(rate_of(seg) for seg in segments)


def failures(requests: Sequence[Request]) -> int:
    """Requests that got no reply, an error reply or no connection."""
    return sum(1 for r in requests if not r.ok)


def answers(requests: Sequence[Request]) -> Tuple[List[Pair], List[bool]]:
    """The pairs of every answered query request and their served bits."""
    pairs: List[Pair] = []
    bits: List[bool] = []
    for r in requests:
        if r.ok and r.op == proto.OP_ANSWERS:
            got = proto.decode_answers(r.payload)
            if len(got) != len(r.pairs):
                raise proto.ProtocolError(
                    f"request {r.rid}: {len(got)} answers for {len(r.pairs)} pairs"
                )
            pairs.extend(r.pairs)
            bits.extend(got)
    return pairs, bits
