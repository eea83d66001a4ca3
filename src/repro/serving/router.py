"""Async request router: single-flight fit coalescing over SelectionService.

:class:`SelectionService` answers warm queries in a millisecond but a
cold query fits a whole pipeline, and the serial facade makes N
concurrent cold queries for one target pay N fits.
:class:`AsyncSelectionRouter` fronts one service with an asyncio event
loop and fixes exactly that:

- **single-flight coalescing** — concurrent misses for the same
  ``(target, config_fp)`` key await one in-flight fit future; the fit
  runs once no matter how many clients asked for it;
- **thread-pool offload** — fits/revives and predicts are CPU-bound, so
  they run in executors while the event loop keeps accepting requests;
  distinct cold targets fit in parallel (derived-score recording into
  the shared zoo catalog is lock-guarded — see
  :attr:`repro.store.ZooCatalog.lock` — so ``fit_workers`` defaults
  above one; the fit job also runs one warm-up predict so the predict
  pool never touches a pipeline's lazy normalisation state);
- **remote fits** — ``fit_executor="process"`` ships each cold fit to a
  worker *process* of a router-owned loopback fleet
  (:class:`~repro.fleet.LocalFleet`) for true multi-core fitting:
  pure-Python fit stages (walks, SGNS) hold the GIL, so the thread pool
  alone serves cold traffic at roughly one core.  ``"socket"`` dispatches
  through a shared :class:`~repro.fleet.FleetCoordinator` instead.  The
  fit threads then merely block on the fleet — queueing, coalescing,
  shedding, and stats behave identically in every mode;
- **bounded cold-fit queue** — at most ``max_pending_fits`` cold fits
  may be admitted (in flight or waiting for a fit worker); an overflow
  either raises :class:`QueueFullError` with an adaptive
  ``retry_after_s`` hint derived from the stats-window p95 fit latency
  (``overflow="reject"``, the default) or waits for capacity
  (``overflow="wait"``);
- **probabilistic early shedding** — with ``shed_start < 1``, reject
  mode starts shedding *before* the hard cliff: once queue depth
  crosses ``shed_start × max_pending_fits``, requests are shed with
  probability rising linearly from 0 to 1 at the cliff, so saturation
  degrades smoothly instead of flipping between all-accept and
  all-reject;
- **router stats** — coalesced-request count, rejections, peak queue
  depth, and per-stage latencies (queue wait / fit / predict), merged
  with the service's counters by :meth:`AsyncSelectionRouter.stats`.

All catalog-mutating work happens on the fit workers: the fit job warms
each fresh pipeline with one predict, materialising the target's lazy
transferability normalisation before any predict-pool thread sees the
pipeline.  Per-pipeline predict calls are additionally serialised with a
per-key thread lock as a safety net; predicts for *different* targets
run concurrently.

The router also answers typed protocol requests
(:meth:`AsyncSelectionRouter.handle`), sharing the response constructors
with :meth:`SelectionService.handle` so the async and serial paths
cannot diverge.
"""

from __future__ import annotations

import asyncio
import math
import os
import random
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.fleet.local import LocalFleet
from repro.obs import graft_spans, run_in_context, set_outcome, span
from repro.serving.protocol import (
    RankRequest,
    RankResponse,
    ScoreBatchRequest,
    ScoreBatchResponse,
)
from repro.serving.service import SelectionService, ServiceStats

__all__ = [
    "AsyncSelectionRouter",
    "RouterStats",
    "QueueFullError",
    "ROUTER_LATENCY_WINDOW",
]

#: rolling window of per-stage latencies kept for percentile reporting
ROUTER_LATENCY_WINDOW = 10_000

#: most-recent fit samples feeding the adaptive retry hint's p95
_HINT_SAMPLE_WINDOW = 1_024

_COUNTER_FIELDS = (
    "requests",
    "coalesced",
    "rejections",
    "early_sheds",
    "failed_waits",
    "cold_fits",
    "queue_waits",
    "fits_timed",
    "predicts_timed",
)

#: total-appended counter paired with each latency deque, so ``since``
#: stays correct after the bounded deque wraps (same idea as
#: ``ServiceStats.since`` slicing by the queries counter)
_STAGE_COUNTERS = {
    "queue_wait_ms": "queue_waits",
    "fit_ms": "fits_timed",
    "predict_ms": "predicts_timed",
}


class QueueFullError(RuntimeError):
    """The bounded cold-fit queue is full; retry after ``retry_after_s``."""

    def __init__(self, message: str, retry_after_s: float):
        super().__init__(message)
        self.retry_after_s = retry_after_s


@dataclass
class RouterStats:
    """Counters and per-stage latencies accumulated by the router."""

    requests: int = 0
    #: requests that awaited another request's in-flight fit
    coalesced: int = 0
    #: requests shed because the cold-fit queue was full
    rejections: int = 0
    #: rejections that were probabilistic early sheds (queue not yet at
    #: the hard limit); always counted inside ``rejections`` too
    early_sheds: int = 0
    #: coalesced waiters whose originator's fit *failed* (not shed) —
    #: their outcome merges to "error", not "coalesced"
    failed_waits: int = 0
    #: cold fits the router admitted (== originators, not waiters)
    cold_fits: int = 0
    #: highest number of simultaneously pending cold fits observed
    peak_pending_fits: int = 0
    #: lifetime append counts for the three latency deques below
    queue_waits: int = 0
    fits_timed: int = 0
    predicts_timed: int = 0
    queue_wait_ms: deque = field(
        default_factory=lambda: deque(maxlen=ROUTER_LATENCY_WINDOW), repr=False
    )
    fit_ms: deque = field(
        default_factory=lambda: deque(maxlen=ROUTER_LATENCY_WINDOW), repr=False
    )
    predict_ms: deque = field(
        default_factory=lambda: deque(maxlen=ROUTER_LATENCY_WINDOW), repr=False
    )

    def record_latency(self, stage: str, ms: float) -> None:
        """Append one ``stage`` sample ('queue_wait_ms'/'fit_ms'/...)."""
        getattr(self, stage).append(ms)
        counter = _STAGE_COUNTERS[stage]
        setattr(self, counter, getattr(self, counter) + 1)

    def copy(self) -> "RouterStats":
        out = RouterStats(**{f: getattr(self, f) for f in _COUNTER_FIELDS})
        out.peak_pending_fits = self.peak_pending_fits
        for name in _STAGE_COUNTERS:
            getattr(out, name).extend(getattr(self, name))
        return out

    def since(self, earlier: "RouterStats") -> "RouterStats":
        """Counters/latencies accumulated after the ``earlier`` snapshot.

        Each stage's fresh samples are sliced by its append counter (not
        deque lengths, which stop growing once the window wraps);
        ``peak_pending_fits`` is a high-water mark, not a counter, so the
        delta carries the current peak unchanged.
        """
        out = RouterStats(
            **{f: getattr(self, f) - getattr(earlier, f) for f in _COUNTER_FIELDS}
        )
        out.peak_pending_fits = self.peak_pending_fits
        for name, counter in _STAGE_COUNTERS.items():
            fresh = getattr(out, counter)
            if fresh > 0:
                getattr(out, name).extend(list(getattr(self, name))[-fresh:])
        return out

    def merge(self, other: "RouterStats") -> "RouterStats":
        """Pool another snapshot in (fleet aggregation over namespaces):
        counters sum, stage windows extend, the peak stays a max."""
        for name in _COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.peak_pending_fits = max(self.peak_pending_fits, other.peak_pending_fits)
        for name in _STAGE_COUNTERS:
            getattr(self, name).extend(getattr(other, name))
        return self

    @staticmethod
    def _percentile(values, q: float) -> float:
        if not values:
            return 0.0
        return float(np.percentile(np.asarray(values), q))

    @staticmethod
    def _percentiles(values: deque, qs: tuple) -> tuple:
        """Several percentiles of one window in a single pass."""
        if not values:
            return tuple(0.0 for _ in qs)
        return tuple(float(v) for v in np.percentile(np.asarray(values), qs))

    def latency_summary(self) -> dict[str, float]:
        """The per-stage latency slice of :meth:`summary` alone.

        Compare responses embed this per strategy (merged with the
        service's per-query window), so it stays a flat name->float map
        and batches each stage's percentiles into one
        ``np.percentile`` call.
        """
        fit_p50, fit_p95 = self._percentiles(self.fit_ms, (50, 95))
        predict_p50, predict_p95 = self._percentiles(self.predict_ms, (50, 95))
        return {
            "queue_wait_p95_ms": self._percentile(self.queue_wait_ms, 95),
            "fit_p50_ms": fit_p50,
            "fit_p95_ms": fit_p95,
            "predict_p50_ms": predict_p50,
            "predict_p95_ms": predict_p95,
        }

    def summary(self) -> dict[str, float]:
        return {
            "router_requests": self.requests,
            "coalesced": self.coalesced,
            "rejections": self.rejections,
            "early_sheds": self.early_sheds,
            "failed_waits": self.failed_waits,
            "cold_fits": self.cold_fits,
            "peak_pending_fits": self.peak_pending_fits,
            **self.latency_summary(),
        }


def _retrieve_exception(future: asyncio.Future) -> None:
    # A failed fit with zero coalesced waiters would otherwise log
    # "exception was never retrieved" — the originator re-raises its own
    # copy, so marking the future's copy retrieved loses nothing.
    if not future.cancelled():
        future.exception()


class AsyncSelectionRouter:
    """Asyncio front-end over one :class:`SelectionService`.

    Parameters
    ----------
    service:
        The (cold or warm) service to route to.  The router is the
        concurrency front door; don't drive the same service's
        synchronous API from other threads at the same time.
    max_pending_fits:
        Bound on simultaneously admitted cold fits (in flight or queued
        for a fit worker).  Coalesced waiters don't count: they hold no
        queue slot, they only await the originator's future.
    overflow:
        ``"reject"`` sheds the request with :class:`QueueFullError`
        (carrying a ``retry_after_s`` hint); ``"wait"`` parks it until a
        slot frees up.
    retry_after_s:
        Floor for the retry hint; the adaptive hint is the stats-window
        p95 fit latency times the queue-drain rounds ahead of the shed
        request (pending fits / fit workers).
    shed_start:
        Fraction of ``max_pending_fits`` at which probabilistic early
        shedding begins (reject mode only).  Below it nothing is shed;
        from there the shed probability rises linearly, reaching 1 at
        the hard limit.  The default ``1.0`` disables early shedding
        (the pre-existing hard-cliff behaviour).
    shed_rng:
        Zero-arg callable returning uniforms in [0, 1) for the shedding
        draw; defaults to :func:`random.random`.  Tests inject a
        deterministic sequence here.
    fit_workers:
        Cold-fit parallelism: threads (``fit_executor="thread"``) or
        local fleet workers, one fit each (``"process"``).  Distinct
        cold targets fit in parallel: derived similarity/transferability
        recording into the shared zoo catalog is serialised by the
        catalog's own lock (thread mode) or stays process-local and
        folds back through the packed artifact (process mode).
    predict_workers:
        Threads answering warm predicts (safe to raise: per-key locks
        already serialise same-pipeline predicts).
    fit_executor:
        ``"thread"`` fits in the router's thread pool (the default);
        ``"process"`` ships cold fits to a router-owned
        :class:`~repro.fleet.LocalFleet` — a loopback coordinator with
        ``fit_workers`` spawned workers — for true CPU parallelism;
        ``"socket"`` dispatches them through a shared
        :class:`~repro.fleet.FleetCoordinator` (the ``fleet`` parameter)
        to ``repro fit-worker`` daemons.  Both remote modes are the same
        dispatch path with the same failure semantics: the worker
        returns the strategy-packed artifact and the parent unpacks and
        writes it through to the registry byte-identically to the thread
        path.  ``None`` reads the
        ``REPRO_FIT_EXECUTOR`` environment variable, defaulting to
        ``"thread"``.
    fit_timeout_s:
        Process/socket modes: a fit exceeding this many seconds raises
        :class:`~repro.fleet.errors.FitTimeoutError`, shedding its
        coalesced group.  ``None`` (default) never times out.
    fleet:
        The :class:`~repro.fleet.FleetCoordinator` socket-mode fits
        dispatch through.  Required for ``fit_executor="socket"``; the
        coordinator is shared (gateway-owned), so :meth:`close` leaves
        it running.
    """

    def __init__(
        self,
        service: SelectionService,
        *,
        max_pending_fits: int = 8,
        overflow: str = "reject",
        retry_after_s: float = 0.5,
        fit_workers: int = 2,
        predict_workers: int = 4,
        shed_start: float = 1.0,
        shed_rng=None,
        fit_executor: str | None = None,
        fit_timeout_s: float | None = None,
        fleet=None,
    ):
        if max_pending_fits < 1:
            raise ValueError("max_pending_fits must be >= 1")
        if overflow not in ("reject", "wait"):
            raise ValueError(f"overflow must be 'reject' or 'wait', got {overflow!r}")
        if fit_workers < 1 or predict_workers < 1:
            raise ValueError("worker counts must be >= 1")
        if not (0.0 <= shed_start <= 1.0):
            raise ValueError("shed_start must be in [0, 1]")
        if fit_executor is None:
            fit_executor = os.environ.get("REPRO_FIT_EXECUTOR", "thread")
        if fit_executor not in ("thread", "process", "socket"):
            raise ValueError(
                f"fit_executor must be 'thread', 'process', or 'socket', "
                f"got {fit_executor!r}"
            )
        if fit_executor == "socket" and fleet is None:
            raise ValueError(
                "fit_executor='socket' needs a FleetCoordinator (fleet=...)"
            )
        self.service = service
        self.max_pending_fits = max_pending_fits
        self.overflow = overflow
        self.retry_after_s = retry_after_s
        self.shed_start = shed_start
        self._shed_rng = shed_rng if shed_rng is not None else random.random
        self.fit_workers = fit_workers
        self.fit_executor = fit_executor
        self._fit_timeout_s = fit_timeout_s
        #: where remote fits dispatch: this router's own loopback fleet
        #: (process mode) or the gateway's shared coordinator (socket)
        self._fleet = None
        if fit_executor == "process":
            self._fleet = LocalFleet(fit_workers)
        elif fit_executor == "socket":
            self._fleet = fleet
        self._fit_pool = ThreadPoolExecutor(
            max_workers=fit_workers, thread_name_prefix="router-fit"
        )
        self._predict_pool = ThreadPoolExecutor(
            max_workers=predict_workers, thread_name_prefix="router-predict"
        )
        self._stats = RouterStats()  # guarded by: self._stats_lock
        self._stats_lock = threading.Lock()
        #: (fits_timed generation, p95 ms) — see _retry_after_hint
        self._p95_cache: tuple[int, float] = (-1, 0.0)
        #: in-flight fit futures keyed by (target, config_fp); mutated
        #: only from the event-loop thread, so no lock is needed
        self._inflight: dict[tuple[str, str], asyncio.Future] = {}
        self._pending_fits = 0
        #: serialises predicts on one fitted pipeline (see module doc);
        #: bounded by the service cache: the eviction listener below
        #: drops a key's lock with its cache entry, so a long-running
        #: server over millions of targets cannot leak locks
        # guarded by: self._predict_locks_guard
        self._predict_locks: dict[tuple[str, str], threading.Lock] = {}
        self._predict_locks_guard = threading.Lock()
        service.add_eviction_listener(self._drop_predict_locks)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._capacity: asyncio.Condition | None = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # loop binding
    # ------------------------------------------------------------------ #
    def _bind_loop(self) -> asyncio.AbstractEventLoop:
        """The running loop; rebinds loop-local state across asyncio.runs."""
        if self._closed:
            raise RuntimeError("router is closed")
        loop = asyncio.get_running_loop()
        if loop is not self._loop:
            if self._inflight:
                raise RuntimeError(
                    "router used from a new event loop while fits from a "
                    "previous loop are still in flight"
                )
            self._loop = loop
            self._capacity = asyncio.Condition()
        return loop

    # ------------------------------------------------------------------ #
    # single-flight fit acquisition
    # ------------------------------------------------------------------ #
    def _retry_after_hint(self) -> float:
        """Adaptive backpressure: when will a retry plausibly be admitted?

        The stats-window p95 fit latency (not the mean: shed clients who
        return too early are shed again, so the hint must cover slow
        fits) times the number of queue-drain rounds ahead of the shed
        request — pending fits spread over the fit workers.  Falls back
        to the configured floor until the window has samples.

        The p95 is cached per fit-count generation: a rejection storm —
        exactly when this path is hot — recomputes nothing and holds
        ``_stats_lock`` only long enough to read one counter.  Only the
        event-loop thread calls this, so the cache needs no lock.
        """
        with self._stats_lock:
            generation = self._stats.fits_timed
            samples = (
                list(self._stats.fit_ms)[-_HINT_SAMPLE_WINDOW:]
                if generation != self._p95_cache[0]
                else None
            )
        if samples is not None:  # percentile math outside the lock
            self._p95_cache = (generation, RouterStats._percentile(samples, 95))
        p95_ms = self._p95_cache[1]
        if p95_ms <= 0.0:
            return self.retry_after_s
        drain_rounds = math.ceil((self._pending_fits or 1) / self.fit_workers)
        return max(self.retry_after_s, (p95_ms / 1e3) * drain_rounds)

    def _shed_probability(self) -> float:
        """Early-shed probability at the current queue depth.

        Zero up to ``shed_start × max_pending_fits``, then a linear ramp
        to 1 at the hard limit (where the cliff takes over anyway).
        """
        if self.shed_start >= 1.0:
            return 0.0
        start = self.shed_start * self.max_pending_fits
        depth = self._pending_fits
        if depth <= start:
            return 0.0
        return (depth - start) / (self.max_pending_fits - start)

    async def _admit_cold_fit(self, target: str, overflow: str) -> None:
        """Take one cold-fit queue slot or shed the request."""
        if self._pending_fits >= self.max_pending_fits:
            if overflow == "reject":
                hint = self._retry_after_hint()
                with self._stats_lock:
                    self._stats.rejections += 1
                set_outcome("shed")
                raise QueueFullError(
                    f"cold-fit queue full ({self._pending_fits} pending, "
                    f"limit {self.max_pending_fits}); target {target!r} "
                    f"shed — retry in {hint:.2f}s",
                    retry_after_s=hint,
                )
            async with self._capacity:
                await self._capacity.wait_for(
                    lambda: self._pending_fits < self.max_pending_fits
                )
        elif overflow == "reject":
            probability = self._shed_probability()
            if probability > 0.0 and self._shed_rng() < probability:
                hint = self._retry_after_hint()
                with self._stats_lock:
                    self._stats.rejections += 1
                    self._stats.early_sheds += 1
                set_outcome("shed")
                raise QueueFullError(
                    f"cold-fit queue deepening ({self._pending_fits} of "
                    f"{self.max_pending_fits} pending); target {target!r} "
                    f"shed early (p={probability:.2f}) — retry in "
                    f"{hint:.2f}s",
                    retry_after_s=hint,
                )
        self._pending_fits += 1
        with self._stats_lock:
            self._stats.cold_fits += 1
            self._stats.peak_pending_fits = max(
                self._stats.peak_pending_fits, self._pending_fits
            )

    async def _release_cold_fit(self) -> None:
        self._pending_fits -= 1
        async with self._capacity:
            self._capacity.notify_all()

    def _remote_fit(self, strategy, zoo, target: str):
        """Process/socket-mode fit: block a fit thread on a fleet worker.

        The worker — a local fleet child or a ``repro fit-worker`` —
        ships back ``(meta, arrays, spans)``; its fit-stage spans are
        grafted onto the live request trace here (this thread carries
        the request context via :func:`repro.obs.run_in_context`) and
        the packed payload is returned for
        :meth:`SelectionService.load_or_fit` to unpack and write
        through.
        """
        meta, arrays, spans = self._fleet.submit_fit(
            strategy, zoo, target, timeout_s=self._fit_timeout_s
        )
        graft_spans(spans)
        return meta, arrays

    def _fit_job(self, target: str):
        """Runs on a fit worker: acquire the pipeline, warm its lazy state.

        In thread mode the throwaway predict materialises the target's
        transferability normalisation, which records scores into the
        *shared* zoo catalog on first use.  Doing it here keeps fit
        workers the only catalog writers (their derived-score recording
        is serialised by ``ZooCatalog.lock``); the predict pool then
        never mutates shared state.  Costs one extra predict per cold
        fit — microscopic next to the fit itself.  In the remote modes
        the worker already warmed the pipeline before packing (the state
        ships inside the artifact), so the predict is a pure read kept
        for path uniformity.
        """
        remote = self._remote_fit if self._fleet is not None else None
        fitted = self.service.load_or_fit(target, remote_fit=remote)
        fitted.predict(self.service.zoo.model_ids())
        return fitted

    async def _ensure_fitted(self, target: str, overflow: str | None = None):
        """Fitted pipeline for ``target`` with single-flight coalescing.

        Exactly one execution of :meth:`SelectionService.load_or_fit` per
        (target, config fingerprint) is in flight at any moment; every
        concurrent request for that key awaits the same future.
        """
        loop = self._bind_loop()
        cached = self.service.cache_get(target)  # fast; counts hit/miss
        if cached is not None:
            return cached

        key = (target, self.service.config_fp)
        inflight = self._inflight.get(key)
        if inflight is not None:
            waited = time.perf_counter()
            with self._stats_lock:
                self._stats.coalesced += 1
            set_outcome("coalesced")
            try:
                # shield: cancelling one waiter must not cancel the
                # future every other participant (and the originator's
                # set_result) depends on.
                with span("queue.coalesced_wait"):
                    fitted = await asyncio.shield(inflight)
            except QueueFullError:
                # The originator was shed while this request waited on
                # it; that sheds the whole coalesced group.
                with self._stats_lock:
                    self._stats.rejections += 1
                set_outcome("shed")
                raise
            except BaseException:
                # Any other failure of the *originator's* fit (a fit
                # exception, a fit-plane crash/timeout, a cancelled
                # originator) also fails every waiter — count it and
                # merge the outcome to "error" instead of leaving the
                # trace claiming a successful coalesced wait.  A waiter
                # cancelled in its own right (future still pending)
                # stays out of the counter: nothing failed group-wide.
                if (
                    inflight.done()
                    and not inflight.cancelled()
                    and inflight.exception() is not None
                ):
                    with self._stats_lock:
                        self._stats.failed_waits += 1
                    set_outcome("error")
                raise
            with self._stats_lock:
                self._stats.record_latency(
                    "queue_wait_ms", (time.perf_counter() - waited) * 1e3
                )
            return fitted

        # Register the future BEFORE waiting for queue capacity: admission
        # may suspend (overflow="wait"), and any same-key request arriving
        # during that suspension must coalesce, not start a second fit.
        future = loop.create_future()
        future.add_done_callback(_retrieve_exception)
        self._inflight[key] = future
        admitted = False
        try:
            await self._admit_cold_fit(target, overflow or self.overflow)
            admitted = True
            started = time.perf_counter()
            # run_in_context: propagate the request's trace onto the fit
            # worker so fit.* spans land on the originating request
            fitted = await loop.run_in_executor(
                self._fit_pool, run_in_context(self._fit_job, target)
            )
        except BaseException as exc:
            # A cancelled originator sheds the whole coalesced group
            # (waiters see the CancelledError; a retry hits the cache if
            # the executor fit still completed).
            if not future.done():
                future.set_exception(exc)
            raise
        else:
            if not future.done():
                future.set_result(fitted)
            with self._stats_lock:
                self._stats.record_latency(
                    "fit_ms", (time.perf_counter() - started) * 1e3
                )
            return fitted
        finally:
            del self._inflight[key]
            if admitted:
                await self._release_cold_fit()

    # ------------------------------------------------------------------ #
    # predict offload
    # ------------------------------------------------------------------ #
    def _predict_lock(self, target: str) -> threading.Lock:
        key = (target, self.service.config_fp)
        # guard: creation happens on the loop thread, but the service's
        # eviction listener removes keys from fit-worker threads
        with self._predict_locks_guard:
            lock = self._predict_locks.get(key)
            if lock is None:
                lock = self._predict_locks[key] = threading.Lock()
        return lock

    def _drop_predict_locks(self, keys) -> None:
        """Service eviction hook: a key's predict lock dies with its
        cache entry (an in-flight predict keeps its own reference)."""
        with self._predict_locks_guard:
            for key in keys:
                self._predict_locks.pop(key, None)

    async def _run_predict(self, target: str, fn):
        loop = self._bind_loop()
        lock = self._predict_lock(target)

        def locked():
            with lock:
                return fn()

        started = time.perf_counter()
        with span("predict"):
            result = await loop.run_in_executor(
                self._predict_pool, run_in_context(locked)
            )
        with self._stats_lock:
            self._stats.record_latency(
                "predict_ms", (time.perf_counter() - started) * 1e3
            )
        return result

    # ------------------------------------------------------------------ #
    # async entry points
    # ------------------------------------------------------------------ #
    async def rank(self, target: str, top_k: int | None = None
                   ) -> list[tuple[str, float]]:
        """Async :meth:`SelectionService.rank`; identical results."""
        started = time.perf_counter()
        with self._stats_lock:
            self._stats.requests += 1
        fitted = await self._ensure_fitted(target)
        model_ids = self.service.zoo.model_ids()
        ranking = await self._run_predict(target, lambda: fitted.rank(model_ids))
        self.service.record_query(started)
        return ranking if top_k is None else ranking[:top_k]

    async def score_batch(self, pairs: list[tuple[str, str]]) -> np.ndarray:
        """Async :meth:`SelectionService.score_batch`; identical results.

        Distinct targets resolve their pipelines concurrently (each
        subject to coalescing) and predict in parallel.
        """
        started = time.perf_counter()
        with self._stats_lock:
            self._stats.requests += 1
        if not pairs:
            self.service.record_query(started)
            return np.empty(0)
        by_target: dict[str, list[int]] = {}
        for i, (_, target) in enumerate(pairs):
            by_target.setdefault(target, []).append(i)

        targets = list(by_target)
        fitteds = await asyncio.gather(*(self._ensure_fitted(t) for t in targets))

        async def predict(target, fitted, indices):
            models = [pairs[i][0] for i in indices]
            return await self._run_predict(target, lambda: fitted.predict(models))

        scores = await asyncio.gather(
            *(predict(t, f, by_target[t]) for t, f in zip(targets, fitteds))
        )
        out = np.empty(len(pairs))
        for target, target_scores in zip(targets, scores):
            out[by_target[target]] = target_scores
        self.service.record_query(started)
        return out

    async def handle(self, request: RankRequest | ScoreBatchRequest):
        """Async :meth:`SelectionService.handle`: protocol in, protocol out.

        Responses go through the same ``build`` constructors as the
        serial facade, so a ranking served through the router (and the
        HTTP front door above it) is byte-identical to one served
        in-process.
        """
        self.service.check_strategy(getattr(request, "strategy", None))
        if isinstance(request, RankRequest):
            return RankResponse.build(
                request, await self.rank(request.target, top_k=request.top_k)
            )
        if isinstance(request, ScoreBatchRequest):
            return ScoreBatchResponse.build(
                request, await self.score_batch(list(request.pairs))
            )
        raise TypeError(f"unsupported request type {type(request).__name__}")

    async def warmup(self, targets: list[str] | None = None) -> dict[str, float]:
        """Pre-fit pipelines concurrently; seconds spent per target.

        Warmup never sheds: capacity overflow waits instead of raising,
        and (like the serial facade) it doesn't count as query traffic.
        """
        if targets is None:
            targets = self.service.zoo.target_names()

        async def one(target: str) -> float:
            started = time.perf_counter()
            await self._ensure_fitted(target, overflow="wait")
            return time.perf_counter() - started

        timings = await asyncio.gather(*(one(t) for t in targets))
        return dict(zip(targets, timings))

    # ------------------------------------------------------------------ #
    # stats + lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, float]:
        """Service counters merged with router-level counters/latencies."""
        return {**self.service.stats(), **self.router_stats().summary()}

    def router_stats(self) -> RouterStats:
        """A copy of the raw router counters (diffable via ``since``)."""
        with self._stats_lock:
            return self._stats.copy()

    def stats_snapshot(self) -> tuple[ServiceStats, RouterStats]:
        """Paired (service, router) snapshots, e.g. to diff a replay."""
        return self.service.stats_snapshot(), self.router_stats()

    def latency_summary(self) -> dict[str, float]:
        """Live latency percentiles: the service's per-query window
        merged with the router's per-stage windows.  This is what a
        ``/v1/compare`` response reports per strategy — summarised under
        the stats locks directly, not from full snapshot copies (the
        windows hold up to 10k/100k samples; a fan-out would otherwise
        copy all of them once per strategy per request)."""
        with self._stats_lock:
            router_part = self._stats.latency_summary()
        return {**self.service.latency_summary(), **router_part}

    def fit_cost_summary(self) -> dict[str, float]:
        """Measured cold-fit cost: rolling-window fit-latency percentiles.

        This is the number the strategy's declared ``fit_weight``
        approximates; ``/v1/stats`` and healthz expose it per strategy
        so budget tuning can read measured cost instead of the declared
        proxy (ROADMAP item 5).
        """
        with self._stats_lock:
            p50, p95 = RouterStats._percentiles(self._stats.fit_ms, (50, 95))
            fits = self._stats.fits_timed
        return {
            "fit_ms_p50": p50,
            "fit_ms_p95": p95,
            "fits_timed": float(fits),
        }

    @property
    def pending_fits(self) -> int:
        """Live cold-fit queue depth (exported as a metrics gauge)."""
        return self._pending_fits

    def prestart_fit_plane(self) -> int:
        """Ready the remote fit plane now (0 in thread mode).

        Process-mode workers otherwise spawn lazily on the first cold
        fit, which would bill it for an interpreter start plus a zoo
        hydration per worker; blocks until every worker has registered
        with the zoo hydrated.  A shared socket fleet has nothing to
        spawn — its prestart reports the live worker count instead.
        """
        if self._fleet is None:
            return 0
        return self._fleet.prestart(zoo=self.service.zoo)

    def close(self) -> None:
        """Shut the executors down; idempotent.

        Process mode's own fleet closes with its workers; a shared socket
        fleet (the gateway's coordinator) is left running — other
        routers may still dispatch through it, and its owner closes it.
        """
        if not self._closed:
            self._closed = True
            self._fit_pool.shutdown(wait=True)
            self._predict_pool.shutdown(wait=True)
            if self.fit_executor == "process":
                self._fleet.close()

    async def __aenter__(self) -> "AsyncSelectionRouter":
        return self

    async def __aexit__(self, *exc_info) -> None:
        self.close()
