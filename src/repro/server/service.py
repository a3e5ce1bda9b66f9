"""The query service: cache → micro-batcher → epoch store (or worker pool).

Topology
--------
::

    clients ──TCP──▶ ReachServer ──▶ QueryService
                                        │  cache (sharded LRU, epoch-keyed)
                                        │  MicroBatcher (≤ window_s)
                                        │  one epoch lease per batch
                                        ▼
                       workers == 0: the leased epoch's oracle, in-process
                       workers  > 0: WorkerPool — N processes, each
                                     mmap-loading the leased epoch's
                                     file (one physical copy)

Every batch is answered by ``query_batch`` on a compiled oracle (the
staged vectorized engine underneath), singletons by scalar ``query`` —
so a served answer is bit-identical to asking the oracle directly.

The worker pool exists for two reasons: CPU parallelism on multicore
hosts (each worker is a full process, no GIL sharing), and memory
safety — the artifact's arrays are mapped read-only and shared, so N
workers cost one physical copy of the index no matter how large it is.
Task payloads ride the wire codec from :mod:`repro.server.protocol`
(packed pairs out, packed answer bits back), which keeps the IPC cost
per *batch* instead of per query — exactly the economics micro-batching
is there to exploit.
"""

from __future__ import annotations

import json
import os
import socket as _socket
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .batching import Batch, MicroBatcher
from .cache import ShardedLRUCache
from . import protocol as proto
from ..telemetry import Telemetry

__all__ = ["QueryService", "WorkerPool", "ReachServer", "HttpFrontend", "serve_artifact"]

Pair = Tuple[int, int]

#: Independent LRU shards in the service's result cache.
CACHE_SHARDS = 8


# ----------------------------------------------------------------------
# Worker pool
# ----------------------------------------------------------------------
def _close_oracle_artifact(oracle) -> None:
    """Close the mmap behind a worker's retired oracle (best effort)."""
    from ..live.store import artifact_of

    art = artifact_of(oracle)
    if art is not None:
        try:
            art.close()
        except Exception:  # pragma: no cover - GC will unmap eventually
            pass


#: What a worker's poll yields when its semaphore token had no task
#: behind it (see :func:`_worker_main`); ``None`` is the exit sentinel.
_NO_TASK = object()


def _worker_main(
    tasks,
    results,
    task_sem,
    path: Optional[str] = None,
    epoch: Optional[int] = None,
) -> None:
    """Worker process: answer batches forever, each from its leased epoch.

    Messages in: ``(batch_id, epoch, path, payload)`` with the wire
    pair encoding, or ``None`` to exit.  Messages out:
    ``("ready", pid)`` once, then per task ``("start", batch_id, pid)``
    followed by ``("ok", batch_id, payload)`` with packed answer bits
    or ``("err", batch_id, message)``.  The ``start`` message is the
    pool's death ledger: it tells the parent *which* batch a worker was
    holding, so a SIGKILLed worker fails exactly that batch instead of
    hanging it forever.

    Every task carries its batch's leased ``(epoch, path)``; a task of
    a *different* epoch than the one currently mapped makes the worker
    load that version's file before answering (the retired mapping is
    closed) — each worker picks up a hot swap on its first batch of the
    new epoch, with no coordination message and no idle reload churn.
    The parent holds the batch's epoch lease until the reply arrives,
    which is what keeps the file mappable here.

    Startup workers pre-map ``(path, epoch)`` so the pool is warm before
    traffic arrives; respawned replacements pass neither (the startup
    epoch may have drained) and map whatever their first task leases.
    """
    from ..serialization import load_artifact

    oracle = None if path is None else load_artifact(path, mmap=True)
    current_epoch = epoch
    import queue as _queue

    results.put(("ready", os.getpid()))
    pid = os.getpid()
    while True:
        # Block on the semaphore, not inside ``tasks.get()``: a queue
        # read holds the queue's shared reader lock for the whole wait,
        # and a worker SIGKILLed there would take the lock to its grave
        # and poison the queue for every replacement.  Blocked semaphore
        # waiters hold nothing, so idle kills are survivable; the get()
        # below finds its item already buffered and returns at once.
        #
        # The get timeout is kept very short so the rlock is held for
        # at most 0.05s per wait (shrinking — not eliminating, see the
        # reaper docstring — the window where a SIGKILL lands on a
        # worker holding the rlock and wedges the queue).  But an Empty
        # poll does NOT yet prove the token was a compensating one from
        # the reaper: ``mp.Queue.put`` hands the item to a feeder
        # thread, and on a loaded single-core host the feeder can lag
        # the semaphore release by far more than one poll.  Swallowing
        # the token on first Empty would strand its task in the queue
        # with no token forever — in steady state that is always the
        # run's *last* batch, a client-visible hang.  So keep polling
        # for a generous deadline before concluding the token had no
        # task behind it.
        task_sem.acquire()
        deadline = time.monotonic() + 1.0
        while True:
            try:
                task = tasks.get(timeout=0.05)
                break
            except _queue.Empty:
                if time.monotonic() >= deadline:
                    task = _NO_TASK  # a compensating token, no task behind it
                    break
        if task is None:  # close()'s exit sentinel
            return
        if task is _NO_TASK:
            continue
        batch_id, epoch, path, payload = task
        results.put(("start", batch_id, pid))
        try:
            if oracle is None or epoch != current_epoch:
                fresh = load_artifact(path, mmap=True)
                if oracle is not None:
                    _close_oracle_artifact(oracle)
                oracle = fresh
                current_epoch = epoch
            pairs = proto.decode_pairs(payload)
            if len(pairs) == 1:
                answers = [bool(oracle.query(*pairs[0]))]
            else:
                answers = oracle.query_batch(pairs)
            results.put(("ok", batch_id, proto.encode_answers(answers)))
        except Exception as exc:  # keep the worker alive; report per batch
            results.put(("err", batch_id, repr(exc)))


class WorkerPool:
    """N answer processes over one mmap-shared artifact.

    Prefers the ``fork`` start method (instant start, no re-import);
    falls back to ``spawn`` elsewhere.  The pool is created *before*
    any server thread starts, so forking is safe.  Dispatch is
    asynchronous: batches queue to whichever worker frees up first,
    and a reader thread resolves them, so up to N batches execute
    concurrently.

    The reader doubles as the pool's supervisor: workers announce each
    batch they pick up (``("start", batch_id, pid)``), and the reader
    polls liveness whenever the result queue goes quiet — a worker
    killed mid-batch (OOM killer, operator SIGKILL) fails exactly its
    announced batch with a clear error instead of hanging it forever,
    and a replacement worker is respawned to keep the pool at full
    strength.  Respawned workers load lazily from their first task's
    leased path (the original startup file may have drained).

    ``artifact_path`` and ``initial_epoch`` name the epoch the workers
    pre-map at startup; the caller holds its lease until the pool is up.
    """

    #: Result-queue poll slice; also the upper bound on how long a dead
    #: worker can go unnoticed once the queue is quiet.
    POLL_INTERVAL_S = 0.2

    def __init__(
        self,
        artifact_path: str,
        workers: int,
        *,
        initial_epoch: int,
        start_timeout: float = 60.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        import multiprocessing as mp

        artifact_path = str(artifact_path)
        self.workers = workers
        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
            ctx = mp.get_context("spawn")
        self._ctx = ctx
        self._tasks = ctx.Queue()
        #: One token per queued task.  Workers block here instead of
        #: inside ``tasks.get()`` so an idle SIGKILL cannot die holding
        #: the queue's reader lock (which would wedge every survivor).
        self._task_sem = ctx.Semaphore(0)
        self._results = ctx.Queue()
        self._lock = threading.Lock()
        self._pending: Dict[int, Batch] = {}
        self._active: Dict[int, int] = {}  # worker pid -> batch_id it holds
        self._next_id = 0
        self._dispatched = 0
        self._errors = 0
        self._respawns = 0
        self._spawn_seq = workers
        self._closed = False
        self._reader: Optional[threading.Thread] = None
        self._procs = [
            ctx.Process(
                target=_worker_main,
                args=(
                    self._tasks,
                    self._results,
                    self._task_sem,
                    artifact_path,
                    initial_epoch,
                ),
                daemon=True,
                name=f"repro-serve-worker-{i}",
            )
            for i in range(workers)
        ]
        for proc in self._procs:
            proc.start()
        # Block until every worker has its oracle mapped — a server that
        # accepts traffic before the pool is warm would stall its first
        # window of batches behind artifact loads.
        import queue as _queue

        deadline = time.monotonic() + start_timeout
        ready = 0
        while ready < workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.close()
                raise RuntimeError(
                    f"worker pool startup timed out ({ready}/{workers} ready)"
                )
            try:
                # Short slices so a worker that dies loading the
                # artifact fails the pool immediately instead of
                # burning the whole start timeout.
                msg = self._results.get(timeout=min(0.25, remaining))
            except _queue.Empty:
                dead = [p for p in self._procs if not p.is_alive()]
                if not dead:
                    continue
                self.close()
                raise RuntimeError(
                    f"{len(dead)} worker(s) died loading "
                    f"{artifact_path!r} before reporting ready "
                    f"({ready}/{workers} ready)"
                ) from None
            if msg[0] == "ready":
                ready += 1
        self._reader = threading.Thread(
            target=self._read_results, name="repro-pool-reader", daemon=True
        )
        self._reader.start()

    # -- dispatch ------------------------------------------------------
    def dispatch(self, batch: Batch, lease) -> None:
        """Queue a batch; the reader thread resolves it on completion.

        ``lease`` pins one artifact epoch for the whole batch: its
        ``(epoch, path)`` ride the task so the worker maps the right
        version, and the lease is released only once the batch
        resolves — which is what keeps the epoch's file on disk until
        every worker that needs it has mapped it.
        """
        payload = proto.encode_pairs(batch.pairs)
        with self._lock:
            if self._closed:
                lease.release()
                batch.fail(RuntimeError("worker pool closed"))
                return
            batch_id = self._next_id
            self._next_id += 1
            self._pending[batch_id] = (batch, lease)
            self._dispatched += 1
        self._tasks.put((batch_id, lease.epoch, lease.path, payload))
        self._task_sem.release()

    def _read_results(self) -> None:
        import queue as _queue

        while True:
            try:
                msg = self._results.get(timeout=self.POLL_INTERVAL_S)
            except _queue.Empty:
                # Quiet queue: every message a dead worker managed to
                # send has been drained, so is_alive() is now a truthful
                # verdict on its announced batch.
                if self._closed:
                    return
                self._reap_dead_workers()
                continue
            if msg is None:
                return
            kind = msg[0]
            if kind == "ready":  # a respawned replacement came up
                continue
            if kind == "start":
                _kind, batch_id, pid = msg
                with self._lock:
                    self._active[pid] = batch_id
                continue
            kind, batch_id, payload = msg
            with self._lock:
                entry = self._pending.pop(batch_id, None)
                for pid, held in list(self._active.items()):
                    if held == batch_id:
                        del self._active[pid]
            if entry is None:  # late reply after close; nothing waits
                continue
            batch, lease = entry
            try:
                if kind == "ok":
                    batch.resolve(proto.decode_answers(payload), epoch=lease.epoch)
                else:
                    with self._lock:
                        self._errors += 1
                    batch.fail(RuntimeError(f"worker failed: {payload}"))
            finally:
                lease.release()

    def _reap_dead_workers(self) -> None:
        """Fail dead workers' announced batches; respawn replacements.

        Called from the reader thread only, and only when the result
        queue is drained — so an announced-but-unanswered batch held by
        a dead process really is lost, not merely queued.  Two residual
        windows remain:

        * A worker dying between ``tasks.get()`` and its ``start``
          announcement: that batch's task vanished with the process and
          times out at the client instead of failing fast.  The window
          is a few instructions wide.
        * A worker dying *inside* ``tasks.get()`` — reachable when a
          compensating token from this reaper wakes it with no task
          behind it — dies holding the queue's shared reader lock and
          wedges the queue for every survivor.  The get timeout is kept
          very short (0.05s) precisely to shrink this window; it cannot
          be closed entirely without replacing ``mp.Queue``.
        """
        with self._lock:
            if self._closed:
                return
            dead = [p for p in self._procs if not p.is_alive()]
        for proc in dead:
            pid = proc.pid
            with self._lock:
                if self._closed:
                    return
                self._procs.remove(proc)
                batch_id = self._active.pop(pid, None)
                entry = (
                    self._pending.pop(batch_id, None)
                    if batch_id is not None
                    else None
                )
                self._respawns += 1
                if entry is not None:
                    self._errors += 1
                name = f"repro-serve-worker-r{self._spawn_seq}"
                self._spawn_seq += 1
                replacement = self._ctx.Process(
                    target=_worker_main,
                    # No startup epoch: it may have drained by now.
                    args=(self._tasks, self._results, self._task_sem),
                    daemon=True,
                    name=name,
                )
                self._procs.append(replacement)
            replacement.start()
            # The dead worker may have consumed a task token without
            # finishing the task (killed between acquire and get, or
            # mid-batch).  A compensating token keeps tokens >= queued
            # tasks; at worst a spurious token costs one Empty poll.
            self._task_sem.release()
            if entry is not None:
                batch, lease = entry
                lease.release()
                batch.fail(
                    RuntimeError(
                        f"worker process (pid {pid}, exit code "
                        f"{proc.exitcode}) died while answering this "
                        "batch; a replacement worker was respawned — "
                        "the request is safe to retry"
                    )
                )

    # -- lifecycle -----------------------------------------------------
    def close(self, timeout: float = 5.0) -> None:
        """Stop workers and the reader; fail anything still pending."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = list(self._pending.values())
            self._pending.clear()
            self._active.clear()
        for batch, lease in pending:
            lease.release()
            batch.fail(RuntimeError("worker pool closed"))
        for _ in self._procs:
            self._tasks.put(None)
            self._task_sem.release()
        for proc in self._procs:
            try:
                proc.join(timeout=timeout)
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.terminate()
                    proc.join(timeout=1.0)
            except (AssertionError, ValueError):  # pragma: no cover
                pass  # a respawned replacement raced close() before start()
        if self._reader is not None:
            self._results.put(None)
            self._reader.join(timeout=timeout)
        self._tasks.close()
        self._results.close()

    def stats(self) -> dict:
        with self._lock:
            return {
                "workers": self.workers,
                "dispatched_batches": self._dispatched,
                "in_flight": len(self._pending),
                "worker_errors": self._errors,
                "respawns": self._respawns,
            }


# ----------------------------------------------------------------------
# Query service
# ----------------------------------------------------------------------
def _oracle_bound(oracle) -> int:
    """The exclusive vertex-id bound the oracle accepts."""
    original = getattr(oracle, "original", None)
    if original is not None:  # build-mode facade
        return original.n
    condensation = getattr(oracle, "condensation", None)
    if condensation is not None:  # serve-mode facade: comp maps originals
        return len(condensation.comp)
    n = getattr(oracle, "n", None)  # compiled method oracle
    if isinstance(n, int):
        return n
    raise TypeError(f"cannot infer vertex bound of {type(oracle).__name__}")


def _memory_dedupe_updater(apply_updates):
    """Wrap a live index's update path with an in-memory dedupe window.

    Gives a plain (non-journaled) live server the same
    ``updater(edges, *, client=None, seq=None)`` shape as a
    :class:`~repro.durability.JournaledPrimary`, so ``OP_UPDATE_SEQ``
    re-sends after a lost ack dedupe instead of double-applying.  The
    window lives in memory only: idempotency holds for this server
    process's lifetime, not across a restart — durable dedupe is the
    journaled primary's job.  Un-sequenced calls (``client=None``)
    pass straight through.
    """
    from ..durability import DedupeWindow

    window = DedupeWindow()
    lock = threading.Lock()

    def updater(edges, *, client=None, seq=None):
        if client is None:
            return apply_updates(edges)
        with lock:
            cached = window.check(client, int(seq))
            if cached is not None:
                return dict(cached, deduped=True)
            summary = dict(apply_updates(edges))
            summary.update(client=client, seq=int(seq), deduped=False)
            window.record(client, int(seq), summary)
            return dict(summary)

    return updater


class QueryService:
    """Cache → batcher → one epoch store; the answer path of every frontend.

    Every answer comes from one
    :class:`repro.live.VersionedArtifactStore`: each batch leases the
    store's current epoch and is answered by that version alone, and
    cache keys carry the epoch, so a hot swap published into the store
    takes effect batch-atomically, never serves a stale cached answer
    and never needs a flush.  Worker pools ride the same lease: its
    ``(epoch, path)`` travels with each task.

    Pass exactly one source.  A ``store`` is served as it is published
    to.  A static ``artifact_path`` or an in-process ``oracle``
    (``workers == 0`` only) is published once into a private store as
    the pinned **epoch 0**, so ``OP_EPOCH`` answers 0; the caller's
    oracle is never unmapped.  ``live`` (a
    :class:`repro.live.LiveIndex`) and ``primary`` (a
    :class:`repro.durability.JournaledPrimary`) serve their store and
    mount their update path as :attr:`updater`, the wire ``OP_UPDATE``
    / ``OP_UPDATE_SEQ``: a live index dedupes sequenced re-sends in
    memory for the server's lifetime, a journaled primary acks only
    once the batch is on disk and persists its dedupe window across a
    crash.

    ``window_s`` is the micro-batching window (0 disables coalescing)
    and ``adaptive_window`` lets it shrink under low arrival rate;
    ``cache_size`` the LRU entry budget (0 disables the cache).
    ``owns_store`` makes :meth:`close` close a ``store`` / ``live`` /
    ``primary`` source too; the private store behind ``artifact_path``
    or ``oracle`` is always closed.

    ``allow_empty_store`` lets :meth:`start` succeed on a store with no
    published epoch — the shape of a blank replica waiting for its
    first shipped snapshot.  Queries before the first publish fail with
    a clear "no published epoch" error (never a crash), and serving
    begins the moment an epoch lands.  Requires ``workers == 0``: a
    pool has no file to map until something is published.
    """

    def __init__(
        self,
        artifact_path: Optional[str] = None,
        oracle=None,
        *,
        store=None,
        live=None,
        primary=None,
        workers: int = 0,
        window_s: float = 0.001,
        adaptive_window: bool = False,
        max_batch: int = 65536,
        cache_size: int = 65536,
        owns_store: bool = False,
        allow_empty_store: bool = False,
        telemetry=True,
    ) -> None:
        sources = sum(
            x is not None for x in (artifact_path, oracle, store, live, primary)
        )
        if sources != 1:
            raise ValueError(
                "pass exactly one of artifact_path / oracle / store / live "
                "/ primary"
            )
        if workers > 0 and oracle is not None:
            raise ValueError(
                "worker processes mmap-load the artifact themselves; "
                "serving a live oracle requires workers=0 (or save it "
                "to an artifact first)"
            )
        if allow_empty_store and workers > 0:
            raise ValueError(
                "allow_empty_store requires workers=0: a pool has "
                "no artifact to map until an epoch is published"
            )
        #: ``updater(edges, *, client=None, seq=None) -> summary`` for
        #: the wire ``OP_UPDATE`` / ``OP_UPDATE_SEQ``; None on servers
        #: without an update path.
        self.updater = None
        self._primary = primary
        self._live = live
        owner = store
        if primary is not None:
            owner, self._live = primary, primary.live
            self.updater = primary.apply_update
        elif live is not None:
            owner = live
            self.updater = _memory_dedupe_updater(live.apply_updates)
        elif store is None:
            from ..live import VersionedArtifactStore

            # A static source is one pinned epoch 0.  A store given a
            # loader never unmaps what that loader returns, so the
            # caller's oracle outlives this service.
            owner = store = VersionedArtifactStore(
                None if oracle is None else (lambda _path: oracle)
            )
            store.publish(artifact_path or "", epoch=0)
            owns_store = True
        self._store = store if self._live is None else self._live.store
        #: What :meth:`close` shuts down, when the service owns it.
        self._owned = owner if owns_store else None
        self.allow_empty_store = allow_empty_store
        self.artifact_path = None if artifact_path is None else str(artifact_path)
        self.workers = workers
        self.window_s = window_s
        self.cache = ShardedLRUCache(cache_size, shards=CACHE_SHARDS)
        self._pool: Optional[WorkerPool] = None
        self._batcher = MicroBatcher(
            self._route,
            window_s=window_s,
            max_batch=max_batch,
            adaptive=adaptive_window,
        )
        self._started = False
        self._closed = False
        self._started_at: Optional[float] = None
        self._stat_lock = threading.Lock()
        self._requests = 0
        self._pairs_in = 0
        self._singles = 0
        self._epoch_bounds: Dict[int, int] = {}
        #: Largest bound any request was validated against; a batch
        #: leasing an epoch with a smaller bound re-checks its pairs.
        self._max_bound = 0
        self._store_error = ""
        #: The service's observability bundle (``telemetry=True`` builds
        #: a fresh :class:`repro.telemetry.Telemetry`; ``False`` turns
        #: every instrument off; passing an instance shares one registry
        #: across co-hosted components).  Instrument handles are cached
        #: as attributes so the hot path never does a registry lookup.
        if isinstance(telemetry, bool):
            self.telemetry = Telemetry() if telemetry else None
        else:
            self.telemetry = telemetry
        self._req_hist = None
        self._req_errors = None
        self._stats_errors = None
        self._cache_hist = None
        self._lat_every = 1
        # -1 disables the sampling gate outright: ``n & -1`` is never 0
        # for a positive tick, so the hot path needs no separate
        # "telemetry off?" test.
        self._lat_mask = -1
        self._trace_mask = -1
        if self.telemetry is not None:
            registry = self.telemetry.registry
            # Sampling gates, pre-flattened into masks: the request
            # counter (already bumped under the stat lock) doubles as
            # the sampling tick, so an unsampled request pays exactly
            # one bitmask test for all of telemetry.
            self._lat_every = self.telemetry.latency_every
            self._lat_mask = self._lat_every - 1
            self._trace_mask = self.telemetry.sample_every - 1
            self._req_hist = registry.histogram(
                "repro_request_seconds",
                "service-side query latency, 1-in-%d sampled"
                % self._lat_every,
            )
            self._req_errors = registry.counter(
                "repro_request_errors_total", "requests completed with an error"
            )
            self._stats_errors = registry.counter(
                "repro_stats_errors_total",
                "stats() subsections that raised and were reported degraded",
            )
            registry.gauge(
                "repro_epoch",
                "artifact epoch currently serving (0 = static or unpublished)",
                fn=lambda: self.current_epoch or 0,
            )
            registry.gauge(
                "repro_uptime_seconds",
                "seconds since the service started",
                fn=lambda: (
                    time.monotonic() - self._started_at if self._started_at else 0.0
                ),
            )
            # Clocked here, on sampled requests only, so the cache's
            # own hot path is identical with telemetry on or off.
            self._cache_hist = registry.histogram(
                "repro_cache_lookup_seconds",
                "wall time of one batched cache lookup (get_many), "
                "1-in-%d sampled" % self._lat_every,
            )
            self._batcher.bind_metrics(
                registry, sample_weight=self.telemetry.sample_every
            )
            # Versioned sources carry their own instrumentation points
            # (journal fsync, swap timing, compile stages): hand every
            # distinct component the same registry so one scrape sees
            # the whole pipeline.
            bound_components = []
            for component in (self._primary, self._live, self._store):
                if component is None or component in bound_components:
                    continue
                bound_components.append(component)
                bind = getattr(component, "bind_metrics", None)
                if bind is not None:
                    bind(registry)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "QueryService":
        if self._started:
            return self
        if self._store.current_epoch is None and not self.allow_empty_store:
            raise RuntimeError("the artifact store has no published epoch")
        if self.workers > 0:
            # Lease the epoch across pool startup so a concurrent
            # publish cannot drain (and unlink) the file the workers
            # are busy mapping.
            with self._store.acquire() as lease:
                self._pool = WorkerPool(
                    lease.path, self.workers, initial_epoch=lease.epoch
                )
        self._batcher.start()
        self._started = True
        self._started_at = time.monotonic()
        return self

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._batcher.close()
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._owned is not None:
            self._owned.close()

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the answer path -----------------------------------------------
    @property
    def current_epoch(self) -> Optional[int]:
        """The serving artifact epoch: 0 for a static artifact or
        in-process oracle, None before a blank store's first publish."""
        return self._store.current_epoch

    def _bound_for(self, lease) -> int:
        """Memoized vertex-id bound of one leased epoch (the single
        implementation shared by ingress validation and _route)."""
        bound = self._epoch_bounds.get(lease.epoch)
        if bound is None:
            bound = _oracle_bound(lease.oracle)
            with self._stat_lock:
                # Tiny map (one entry per published epoch); prune so a
                # long-lived server doesn't grow one int per publish.
                if len(self._epoch_bounds) > 8:
                    self._epoch_bounds.clear()
                self._epoch_bounds[lease.epoch] = bound
                self._max_bound = max(self._max_bound, bound)
        return bound

    def _epoch_and_bound(self) -> Tuple[Optional[int], Optional[int]]:
        """One consistent ``(epoch, bound)`` snapshot for a request.

        An epoch's bound never changes, so the current epoch number and
        its memoized bound agree without a lease.  Only a memo miss
        leases, and then takes both values from that one lease: separate
        current_epoch/current_oracle reads could straddle a publish and
        memoize the new oracle's bound under the old epoch.
        ``(None, None)`` only when the store is unavailable — closed
        mid-request, or nothing published yet on a blank replica; the
        store's own message lands in ``_store_error`` and callers turn
        it into a clean error, never compare ids against it.
        """
        epoch = self._store.current_epoch
        bound = self._epoch_bounds.get(epoch)
        if bound is not None:
            return epoch, bound
        try:
            lease = self._store.acquire()
        except RuntimeError as exc:  # closed, or no epoch yet (blank replica)
            self._store_error = str(exc)
            return None, None
        with lease:
            return lease.epoch, self._bound_for(lease)

    def _route(self, batch: Batch) -> None:
        """Batcher dispatch target: lease an epoch, answer in the pool
        or in-process.

        One lease per batch, released when the batch resolves, so every
        answer in a batch comes from exactly one artifact version.
        """
        if batch.singleton:
            with self._stat_lock:
                self._singles += 1
        try:
            lease = self._store.acquire()
        except Exception as exc:
            batch.fail(exc)
            return
        bound = self._bound_for(lease)
        # Ingress validated against the *submission* epoch's bound; if
        # a swap to a smaller graph flipped in between, catch it here
        # with a clear error instead of letting the oracle index out of
        # range (which would surface as an opaque worker/engine
        # exception).  Only the requests that carry an out-of-range
        # pair fail — innocent requests coalesced into the same batch
        # are re-batched and answered normally.  No pair can exceed a
        # bound at least as large as every validated one, so the scan
        # only runs after such a shrink.
        if bound < self._max_bound and any(
            u >= bound or v >= bound for u, v in batch.pairs
        ):
            bad = [
                req
                for req in batch.requests
                if any(u >= bound or v >= bound for u, v in req.pairs)
            ]
            good = [req for req in batch.requests if req not in bad]
            Batch(bad).fail(
                ValueError(
                    f"request contains a vertex pair out of range for "
                    f"n={bound}: the served artifact changed to a "
                    f"smaller graph (epoch {lease.epoch}) after the "
                    "request was validated"
                )
            )
            if not good:
                lease.release()
                return
            batch = Batch(good)
        if self._pool is not None:
            self._pool.dispatch(batch, lease)
            return
        try:
            if batch.singleton:
                u, v = batch.pairs[0]
                answers = [bool(lease.oracle.query(u, v))]
            else:
                answers = lease.oracle.query_batch(batch.pairs)
            batch.resolve(answers, epoch=lease.epoch)
        except Exception as exc:
            batch.fail(exc)
        finally:
            lease.release()

    def query_pairs_async(
        self,
        pairs: Sequence[Pair],
        callback: Callable[[Optional[List[bool]], Optional[BaseException]], None],
        trace=None,
    ) -> None:
        """Answer a request without blocking the calling thread.

        ``callback(answers, error)`` fires exactly once — synchronously
        when the cache covers everything, otherwise from whichever
        thread resolves the batch.  ``trace`` (a telemetry
        :class:`~repro.telemetry.TraceContext`, usually decoded from an
        ``OP_QUERY_TRACED`` frame) collects per-stage spans; with
        telemetry enabled and no client trace, every K-th request is
        auto-traced so the tail sampler fills with organic exemplars.
        """
        if not self._started:
            raise RuntimeError("QueryService.start() has not been called")
        flush = getattr(callback, "flush_writer", None)
        req_errors = self._req_errors
        # One lease yields the request's consistent (epoch, bound):
        # the bound validates ingress, the epoch keys the cache reads.
        epoch, bound = self._epoch_and_bound()
        if bound is None:
            if req_errors is not None:
                req_errors.inc()
            callback(
                None,
                RuntimeError(self._store_error or "the artifact store is closed"),
            )
            if flush is not None:
                flush()
            return
        for u, v in pairs:
            if not (0 <= u < bound and 0 <= v < bound):
                if req_errors is not None:
                    req_errors.inc()
                callback(
                    None,
                    ValueError(
                        f"vertex pair ({u}, {v}) out of range for n={bound}"
                    ),
                )
                if flush is not None:
                    flush()
                return
        with self._stat_lock:
            self._requests = n_req = self._requests + 1
            self._pairs_in += len(pairs)
        # Telemetry gate.  The request counter just bumped under the
        # stat lock doubles as the sampling tick, so an unsampled,
        # untraced request pays exactly one bitmask test for the whole
        # observability layer (``_lat_mask`` is -1 when telemetry is
        # off, which no positive tick can mask to 0); clocks, closures,
        # and histogram locks only run for the sampled 1-in-K, whose
        # observations carry ``weight=K`` to keep the histograms
        # population-accurate.
        lat_weight = 0
        if trace is not None or not n_req & self._lat_mask:
            telemetry = self.telemetry
            if not n_req & self._lat_mask:
                lat_weight = self._lat_every
                if trace is None and not n_req & self._trace_mask:
                    trace = telemetry.new_trace(origin="server")
            t_start_ns = time.perf_counter_ns()
            if trace is not None:
                trace.meta["pairs"] = len(pairs)
            inner_callback = callback
            req_hist = self._req_hist

            def callback(answers, error):
                if lat_weight:
                    req_hist.observe_ns(
                        time.perf_counter_ns() - t_start_ns, lat_weight
                    )
                inner_callback(answers, error)

            if trace is not None:
                # The trace closes after the last work done on the
                # request's behalf: the writer flush when one exists
                # (timed as the "flush" span), else the callback.
                finished = [False]

                def _finish_trace(end_ns=None):
                    if not finished[0]:
                        finished[0] = True
                        trace.finish(end_ns)
                        if telemetry is not None:  # explicit trace, telemetry off
                            telemetry.offer(trace)

                if flush is not None:
                    inner_flush = flush

                    def flush():
                        f0 = time.perf_counter_ns()
                        inner_flush()
                        end = time.perf_counter_ns()
                        if not finished[0]:
                            trace.add_span("flush", f0, end)
                        _finish_trace(end)
                else:
                    inner_traced = callback

                    def callback(answers, error):
                        inner_traced(answers, error)
                        _finish_trace()

        # Cache reads use the epoch current at submission (from the
        # snapshot above); writes (in on_done) use the epoch that
        # actually answered the batch.  Both are correct for their own
        # version — entries never cross epochs.
        if lat_weight or trace is not None:
            c0 = time.perf_counter_ns()
            cached, missing = self.cache.get_many(pairs, epoch=epoch)
            c1 = time.perf_counter_ns()
            if trace is not None:
                trace.add_span("cache_lookup", c0, c1)
            if lat_weight:
                self._cache_hist.observe_ns(c1 - c0, lat_weight)
        else:
            cached, missing = self.cache.get_many(pairs, epoch=epoch)
        if not missing:
            callback([bool(a) for a in cached], None)
            if flush is not None:
                flush()
            return
        missing_pairs = [pairs[i] for i in missing]
        had_hits = len(missing) < len(pairs)

        def on_done(req) -> None:
            if req.error is not None:
                if req_errors is not None:
                    req_errors.inc()
                callback(None, req.error)
                return
            self.cache.put_many(missing_pairs, req.answers, epoch=req.epoch)
            if had_hits and req.epoch != epoch:
                # A publish landed between the cache read (epoch) and
                # the batch lease (req.epoch): combining them would mix
                # versions inside one reply.  Re-ask the *whole* request
                # from the batcher — it rides one batch, hence one
                # epoch, so the retry cannot mix (and needs no loop).
                def on_retry(req2) -> None:
                    if req2.error is not None:
                        if req_errors is not None:
                            req_errors.inc()
                        callback(None, req2.error)
                        return
                    self.cache.put_many(pairs, req2.answers, epoch=req2.epoch)
                    callback([bool(a) for a in req2.answers], None)

                if flush is not None:
                    on_retry.flush_writer = flush
                self._batcher.submit_async(pairs, on_retry, trace)
                return
            for slot, answer in zip(missing, req.answers):
                cached[slot] = answer
            callback([bool(a) for a in cached], None)

        if flush is not None:
            # A buffering callback (TCP front end): the batch flushes
            # each distinct writer once after scattering every answer.
            on_done.flush_writer = flush
        self._batcher.submit_async(missing_pairs, on_done, trace)

    def query_pairs(self, pairs: Sequence[Pair]) -> List[bool]:
        """Blocking :meth:`query_pairs_async` (HTTP and test path)."""
        done = threading.Event()
        box: List[object] = [None, None]

        def callback(answers, error) -> None:
            box[0], box[1] = answers, error
            done.set()

        self.query_pairs_async(pairs, callback)
        done.wait()
        if box[1] is not None:
            raise box[1]
        return box[0]

    def query(self, u: int, v: int) -> bool:
        """One blocking scalar query through the full service path."""
        return self.query_pairs([(u, v)])[0]

    # -- stats ---------------------------------------------------------
    def stats(self) -> dict:
        """The structured stats document (v2).

        Version 2 adds ``stats_version``, a ``telemetry`` section
        (mergeable histogram snapshots + counters/gauges — what the
        cluster scrape aggregates), and honest failure reporting: a
        subsection whose provider raises is *named* in ``degraded``
        and counted in ``repro_stats_errors_total`` instead of being
        silently dropped.  Stats still never fail serving — a broken
        subsection costs that subsection, not the document.
        """
        with self._stat_lock:
            requests, pairs_in, singles = self._requests, self._pairs_in, self._singles
        doc = {
            "stats_version": 2,
            "artifact": None,
            "workers": self.workers,
            "n": None,
            "epoch": None,
            "uptime_s": (
                time.monotonic() - self._started_at if self._started_at else 0.0
            ),
            "requests": requests,
            "pairs": pairs_in,
            "single_dispatches": singles,
            "cache": self.cache.stats(),
            "batcher": self._batcher.stats(),
        }
        if self._pool is not None:
            doc["pool"] = self._pool.stats()
        degraded: List[str] = []

        def subsection(name: str, provider) -> None:
            try:
                doc[name] = provider()
            except Exception:  # a failed provider must not fail serving
                degraded.append(name)
                if self._stats_errors is not None:
                    self._stats_errors.inc()

        if self._primary is not None:
            subsection("durability", self._primary.stats)
        if self._live is not None:
            subsection("live", self._live.stats)
        else:
            subsection("store", self._store.stats)
        try:
            lease = self._store.acquire()
        except RuntimeError:  # closed, or nothing published yet
            pass
        else:
            # One lease describes one version: path, bound and oracle.
            with lease:
                doc.update(
                    artifact=lease.path or None,
                    n=self._bound_for(lease),
                    epoch=lease.epoch,
                )
                if hasattr(lease.oracle, "stats"):
                    subsection("oracle", lease.oracle.stats)
        if degraded:
            doc["degraded"] = degraded
        if self.telemetry is not None:
            doc["telemetry"] = self.telemetry.snapshot()
        return doc


# ----------------------------------------------------------------------
# TCP front end
# ----------------------------------------------------------------------
def _is_loopback(host: str) -> bool:
    """Whether a bind host only reaches local clients."""
    return host in ("127.0.0.1", "localhost", "::1") or host.startswith("127.")


class _ConnWriter:
    """Per-connection response writer that batches frames per flush.

    Query completions *queue* frames; one :meth:`flush` per
    (batch, connection) concatenates and writes them — one syscall for
    a whole micro-batch of responses instead of one per request.
    Control replies (ping, stats, errors) use :meth:`send_now`.
    """

    __slots__ = ("_conn", "_frames", "_buf_lock", "_send_lock", "_dead")

    def __init__(self, conn) -> None:
        self._conn = conn
        self._frames: List[bytes] = []
        self._buf_lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._dead = False

    def queue(self, op: int, request_id: int, payload: bytes = b"") -> None:
        frame = proto.pack_frame(op, request_id, payload)
        with self._buf_lock:
            if not self._dead:
                self._frames.append(frame)

    def flush(self) -> None:
        with self._buf_lock:
            if self._dead or not self._frames:
                return
            data = b"".join(self._frames)
            self._frames.clear()
        try:
            with self._send_lock:
                self._conn.sendall(data)
        except OSError:
            # A failed/timed-out sendall may have written PART of a
            # frame; anything sent afterwards would be parsed mid-frame
            # by the client.  The stream is unrecoverable: mark the
            # writer dead and drop the connection (the reader thread
            # wakes from recv() and cleans up).
            with self._buf_lock:
                self._dead = True
                self._frames.clear()
            try:
                self._conn.shutdown(_socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._conn.close()
            except OSError:  # pragma: no cover
                pass

    def send_now(self, op: int, request_id: int, payload: bytes = b"") -> None:
        self.queue(op, request_id, payload)
        self.flush()


class ReachServer:
    """Threaded TCP server speaking the binary frame protocol.

    One reader thread per connection; responses are written from
    whichever thread resolves the batch (a per-connection lock keeps
    frames whole), so a pipelining client gets true request
    concurrency — which is what feeds the micro-batcher.

    ``port=0`` binds an ephemeral port (see :attr:`address`).
    ``allow_shutdown`` honours the ``OP_SHUTDOWN`` frame.  The frame is
    unauthenticated, so the default (``None``) enables it only when
    ``host`` is loopback; binding other interfaces disables it unless a
    caller passes ``True`` explicitly.
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        allow_shutdown: Optional[bool] = None,
        backlog: int = 128,
        owns_service: bool = False,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        if allow_shutdown is None:
            allow_shutdown = _is_loopback(host)
        self.allow_shutdown = allow_shutdown
        self.backlog = backlog
        self._owns_service = owns_service
        self._listener = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_lock = threading.Lock()
        self._conns: List[object] = []
        self._conn_threads: List[threading.Thread] = []
        self._done = threading.Event()
        self._closed = False
        self._connections_total = 0
        #: Files the server owns and deletes on close (e.g. the temp
        #: artifact a build-mode facade saved for its worker pool).
        self.cleanup_paths: List[str] = []
        #: Callables run during close(), after connections drain but
        #: before the owned service shuts down — watchers, live
        #: indices, anything whose lifetime is tied to this server.
        #: Exceptions are swallowed: shutdown must finish.
        self.cleanup_callbacks: List[Callable[[], None]] = []
        #: Extension opcodes: ``{op: fn(request_id, payload, writer)}``,
        #: consulted before the "unexpected opcode" error.  This is how
        #: a replica mounts ``OP_SHIP`` (epoch replication) on a plain
        #: ReachServer without subclassing; handlers run on the
        #: connection's reader thread and reply through ``writer``.
        self.handlers: Dict[int, Callable[[int, bytes, _ConnWriter], None]] = {}

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ReachServer":
        # Resolve the bind family from the host ('::1' needs AF_INET6).
        family, socktype, protocol, _cname, addr = _socket.getaddrinfo(
            self.host, self.port, type=_socket.SOCK_STREAM
        )[0]
        sock = _socket.socket(family, socktype, protocol)
        try:
            sock.setsockopt(_socket.SOL_SOCKET, _socket.SO_REUSEADDR, 1)
            sock.bind(addr)
            sock.listen(self.backlog)
        except BaseException:
            # A failed start leaves no socket behind, and close() on
            # the unstarted server stays a clean no-op.
            sock.close()
            raise
        self._listener = sock
        self.port = sock.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the server closes; True if it did."""
        return self._done.wait(timeout)

    def close(self) -> None:
        """Stop accepting, drop connections, join threads."""
        with self._conn_lock:
            if self._closed:
                return
            self._closed = True
            conns = list(self._conns)
            threads = list(self._conn_threads)
        if self._listener is not None:
            # shutdown() is what actually wakes a thread blocked in
            # accept(); close() alone leaves it sleeping on Linux.
            try:
                self._listener.shutdown(_socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
        for conn in conns:
            # Same shutdown-then-close dance as the listener: close()
            # alone leaves a thread blocked in recv() sleeping forever.
            try:
                conn.shutdown(_socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        current = threading.current_thread()
        if self._accept_thread is not None and self._accept_thread is not current:
            self._accept_thread.join(timeout=5.0)
        for thread in threads:
            if thread is not current:
                thread.join(timeout=5.0)
        # Callbacks first (watchers must stop publishing before the
        # service closes the store they publish into), then the service.
        for callback in self.cleanup_callbacks:
            try:
                callback()
            except Exception:  # pragma: no cover - shutdown must finish
                pass
        if self._owns_service:
            self.service.close()
        for path in self.cleanup_paths:
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - already gone
                pass
        self._done.set()

    def __enter__(self) -> "ReachServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- connection handling -------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:  # listener closed
                return
            # Per-connection setup must not be able to kill the accept
            # loop: a client that connects and immediately resets can
            # make setsockopt raise on some platforms (the socket is
            # already dead), and losing the accept thread to one broken
            # peer would refuse every future connection.
            try:
                conn.setsockopt(_socket.IPPROTO_TCP, _socket.TCP_NODELAY, 1)
                # A send timeout (send only — recv must keep blocking
                # for idle keep-alive clients) so one client that stops
                # reading cannot park the shared resolver thread in
                # sendall() forever and head-of-line-block every other
                # connection.
                try:
                    import struct as _struct

                    conn.setsockopt(
                        _socket.SOL_SOCKET,
                        _socket.SO_SNDTIMEO,
                        _struct.pack("ll", 30, 0),
                    )
                except (AttributeError, OSError):  # pragma: no cover
                    pass  # platform without SO_SNDTIMEO: degrade
            except OSError:
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
                continue
            with self._conn_lock:
                if self._closed:
                    conn.close()
                    return
                self._conns.append(conn)
                self._connections_total += 1
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(conn,),
                    name="repro-server-conn",
                    daemon=True,
                )
                self._conn_threads.append(thread)
                # Start under the lock: close() must never snapshot a
                # registered-but-unstarted thread (join would raise and
                # abort shutdown half-done).
                thread.start()

    def _serve_connection(self, conn) -> None:
        reader = proto.FrameReader(conn)
        writer = _ConnWriter(conn)
        send = writer.send_now
        try:
            while True:
                try:
                    frame = reader.read_frame()
                except proto.ProtocolError as exc:
                    send(
                        proto.OP_ERROR,
                        proto.CONNECTION_ERROR_ID,
                        repr(exc).encode("utf-8"),
                    )
                    return
                except OSError:
                    return
                if frame is None:
                    return
                op, request_id, payload = frame
                try:
                    if op == proto.OP_QUERY:
                        self._handle_query(request_id, payload, writer)
                    elif op == proto.OP_QUERY_TRACED:
                        self._handle_query(
                            request_id, payload, writer, traced=True
                        )
                    elif op == proto.OP_TRACE:
                        telemetry = getattr(self.service, "telemetry", None)
                        traces = (
                            []
                            if telemetry is None
                            else telemetry.sampler.snapshot()
                        )
                        send(
                            proto.OP_TRACE_REPLY,
                            request_id,
                            json.dumps(traces).encode("utf-8"),
                        )
                    elif op == proto.OP_PING:
                        send(proto.OP_PONG, request_id)
                    elif op == proto.OP_EPOCH:
                        send(
                            proto.OP_EPOCH_REPLY,
                            request_id,
                            proto.encode_epoch(self.service.current_epoch),
                        )
                    elif op == proto.OP_UPDATE:
                        self._handle_update(request_id, payload, send)
                    elif op == proto.OP_UPDATE_SEQ:
                        self._handle_update(
                            request_id, payload, send, sequenced=True
                        )
                    elif op == proto.OP_STATS:
                        doc = dict(self.service.stats())
                        doc["connections_total"] = self._connections_total
                        send(
                            proto.OP_STATS_REPLY,
                            request_id,
                            json.dumps(doc).encode("utf-8"),
                        )
                    elif op == proto.OP_SHUTDOWN:
                        if self.allow_shutdown:
                            send(proto.OP_PONG, request_id)
                            self.close()
                            return
                        send(
                            proto.OP_ERROR,
                            request_id,
                            b"shutdown disabled on this server",
                        )
                    elif op in self.handlers:
                        self.handlers[op](request_id, payload, writer)
                    else:
                        send(
                            proto.OP_ERROR,
                            request_id,
                            f"unexpected opcode {op}".encode("utf-8"),
                        )
                except Exception as exc:
                    # A handler bug (or a malformed payload it did not
                    # expect) costs the one request that triggered it,
                    # never the connection — and the accept loop is a
                    # different thread entirely, so the server keeps
                    # serving either way.
                    send(proto.OP_ERROR, request_id, repr(exc).encode("utf-8"))
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
            current = threading.current_thread()
            with self._conn_lock:
                if conn in self._conns:
                    self._conns.remove(conn)
                # Drop the finished thread's bookkeeping too, or a
                # long-lived server grows a list of dead threads (one
                # per connection ever accepted).
                if current in self._conn_threads:
                    self._conn_threads.remove(current)

    def _handle_update(
        self, request_id: int, payload: bytes, send, *, sequenced: bool = False
    ) -> None:
        """``OP_UPDATE``(+``_SEQ``): apply an edge stream to a live index.

        Runs on the connection's reader thread — updates serialise on
        the live index's lock anyway, and a pipelining client can keep
        querying on other connections while its update compiles.  The
        reply is the JSON publish summary (new ``epoch``, ``changed``
        count, ``swap_s``…).  A sequenced request carries
        ``(client, seq)`` and its summary echoes them plus ``deduped``;
        a duplicate returns the original summary unapplied.
        """
        if self.service.updater is None:
            send(
                proto.OP_ERROR,
                request_id,
                b"this server has no update path (serve a live index: "
                b"Reachability.serve(live=True))",
            )
            return
        try:
            if sequenced:
                client, seq, ops = proto.decode_update_seq(payload)
            else:
                client, seq = None, None
                ops = proto.decode_ops(payload)
        except proto.ProtocolError as exc:
            send(proto.OP_ERROR, request_id, repr(exc).encode("utf-8"))
            return
        try:
            if sequenced:
                summary = self.service.updater(ops, client=client, seq=seq)
            else:
                summary = self.service.updater(ops)
        except Exception as exc:  # bad edges must not kill the connection
            send(proto.OP_ERROR, request_id, repr(exc).encode("utf-8"))
            return
        send(
            proto.OP_UPDATE_REPLY,
            request_id,
            json.dumps(summary).encode("utf-8"),
        )

    def _handle_query(
        self, request_id: int, payload: bytes, writer, *, traced: bool = False
    ) -> None:
        trace = None
        try:
            if traced:
                t0 = time.perf_counter_ns()
                trace_id, pairs = proto.decode_traced_query(payload)
                telemetry = getattr(self.service, "telemetry", None)
                if telemetry is not None:
                    # The client allocated the id; the span clock is
                    # this server's.  A telemetry-off server answers
                    # normally and just drops the id.
                    trace = telemetry.new_trace(trace_id)
                    trace.start_ns = t0  # the request began at decode
                    trace.add_span("decode", t0, time.perf_counter_ns())
            else:
                pairs = proto.decode_pairs(payload)
        except proto.ProtocolError as exc:
            writer.send_now(proto.OP_ERROR, request_id, repr(exc).encode("utf-8"))
            return

        def on_answers(answers, error) -> None:
            if error is None:
                writer.queue(
                    proto.OP_ANSWERS, request_id, proto.encode_answers(answers)
                )
            elif isinstance(error, proto.OverloadedError):
                # Distinct wire op: a shed request failed *because of
                # pressure*, not because it was wrong — a router retries
                # it on another replica, a client backs off.
                writer.queue(
                    proto.OP_OVERLOADED, request_id, str(error).encode("utf-8")
                )
            else:
                writer.queue(
                    proto.OP_ERROR, request_id, repr(error).encode("utf-8")
                )

        # Completions only queue; the batch (or the service's
        # synchronous paths) flushes each connection once per batch.
        on_answers.flush_writer = writer.flush
        self.service.query_pairs_async(pairs, on_answers, trace=trace)


# ----------------------------------------------------------------------
# HTTP front end (JSON fallback)
# ----------------------------------------------------------------------
class HttpFrontend:
    """The stdlib JSON/HTTP fallback mounted on the same service.

    ``on_shutdown`` is what a ``POST /shutdown`` actually stops.  It
    defaults to closing just this frontend; a deployment that mounts
    HTTP next to a :class:`ReachServer` (the CLI does) passes the whole
    server's ``close`` so the documented shutdown route takes the
    entire service down, exactly like the binary ``OP_SHUTDOWN``.
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        allow_shutdown: bool = True,
        on_shutdown: Optional[Callable[[], None]] = None,
    ) -> None:
        from http.server import ThreadingHTTPServer

        handler = proto.make_http_handler(service, allow_shutdown=allow_shutdown)
        family = _socket.getaddrinfo(host, port, type=_socket.SOCK_STREAM)[0][0]
        server_cls = ThreadingHTTPServer
        if family != ThreadingHTTPServer.address_family:
            server_cls = type(
                "ReachHTTPServer", (ThreadingHTTPServer,), {"address_family": family}
            )
        self._httpd = server_cls((host, port), handler)
        self._on_shutdown = on_shutdown
        self._httpd.request_shutdown = self.close_async
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    def start(self) -> "HttpFrontend":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-server-http",
            daemon=True,
        )
        self._thread.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def close_async(self) -> None:
        """Run the shutdown target without blocking the handler thread."""
        target = self._on_shutdown or self.close
        threading.Thread(target=target, daemon=True).start()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


# ----------------------------------------------------------------------
# Convenience entry point
# ----------------------------------------------------------------------
def serve_artifact(
    artifact_path: str,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    workers: int = 0,
    window_s: float = 0.001,
    adaptive_window: bool = False,
    max_batch: int = 65536,
    cache_size: int = 65536,
    allow_shutdown: Optional[bool] = None,
    watch: bool = False,
    watch_interval_s: float = 0.5,
    telemetry=True,
) -> ReachServer:
    """Start a TCP server over a saved artifact; returns the running server.

    The one-call deployment path::

        server = serve_artifact("kegg.rpro", port=7431, workers=4)
        server.wait()

    ``watch=True`` serves the artifact through an epoch-versioned store
    and polls the file every ``watch_interval_s``: atomically replacing
    it on disk (write new + ``os.rename``) hot-swaps the served version
    without dropping a connection.  The returned server owns its
    :class:`QueryService` (and, when watching, the store + watcher) —
    ``close()`` (or a client's ``OP_SHUTDOWN``) tears everything down.
    ``allow_shutdown=None`` (default) honours the unauthenticated
    shutdown frame only on loopback hosts.
    """
    source = {"artifact_path": artifact_path}
    watcher = None
    if watch:
        from ..live import ArtifactWatcher, VersionedArtifactStore

        store = VersionedArtifactStore()
        # The watcher publishes epoch 1 too: every epoch is a private
        # snapshot (hard link) of the watched file, so epoch -> content
        # stays bound however fast the operator replaces the path, and
        # the pre-load signature capture closes the replace-during-load
        # race.
        watcher = ArtifactWatcher(store, artifact_path, interval_s=watch_interval_s)
        try:
            watcher.publish_current()
        except BaseException:
            watcher.close()
            store.close()
            raise
        source = {"store": store, "owns_store": True}
    service = QueryService(
        workers=workers,
        window_s=window_s,
        adaptive_window=adaptive_window,
        max_batch=max_batch,
        cache_size=cache_size,
        telemetry=telemetry,
        **source,
    )
    try:
        service.start()
        server = ReachServer(
            service,
            host,
            port,
            allow_shutdown=allow_shutdown,
            owns_service=True,
        )
        if watcher is not None:
            # Stop polling before the service (and its store) go down.
            server.cleanup_callbacks.append(watcher.close)
            watcher.start()
        return server.start()
    except BaseException:
        if watcher is not None:
            watcher.close()
        service.close()
        raise
