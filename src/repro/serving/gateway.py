"""Multi-tenant selection gateway: N named namespaces, one front door.

A *namespace* is an independently-served zoo under a *strategy map* —
one or more :class:`~repro.strategies.SelectionStrategy` instances, each
with its own warm cache and async router, all sharing the namespace's
registry shard.  The :class:`SelectionGateway` routes typed protocol
requests to the namespace they name and, within it, to the strategy
their optional ``strategy`` field selects:

- registry shards are keyed by ``(namespace, strategy fingerprint)`` —
  on disk, ``<root>/<namespace>/<strategy_fp>/<target>`` — so two
  namespaces never serve each other's artifacts even under identical
  strategies;
- an omitted ``strategy`` field serves the namespace's *default*
  strategy, keeping pre-strategy requests byte-identical; an unknown
  spec raises :class:`~repro.strategies.UnknownStrategyError` (the HTTP
  front door maps it to a typed 404 body), and unknown
  namespaces/targets/models keep their own typed errors;
- :meth:`SelectionGateway.stats` merges every namespace's raw counter
  snapshots — pooled across its strategies — into a fleet-wide summary
  (true percentiles over the pooled latency windows, not averages of
  per-namespace percentiles).

Serving several strategies over one namespace turns the paper's
Table-style comparison into a live workload: the same ``/v1/rank``
request with different ``strategy`` values answers a TG variant, an LR
baseline, and a transferability-only ranker head-to-head.

The gateway is the in-process seam the HTTP front door
(:mod:`repro.serving.http`) sits on: both speak only protocol types.
"""

from __future__ import annotations

import asyncio
import re
from pathlib import Path

from repro.obs import Observability
from repro.serving.compare import build_comparisons
from repro.serving.protocol import (
    DEFAULT_COMPARE_TOP_K,
    CompareRequest,
    CompareResponse,
    RankRequest,
    RankResponse,
    ScoreBatchRequest,
    ScoreBatchResponse,
    StatsResponse,
)
from repro.serving.registry import ArtifactRegistry
from repro.serving.router import (
    AsyncSelectionRouter,
    QueueFullError,
    RouterStats,
)
from repro.serving.service import SelectionService, ServiceStats
from repro.strategies import (
    UnknownStrategyError,
    canonical_spec,
    normalize_spec,
    resolve_strategy,
)

__all__ = [
    "SelectionGateway",
    "UnknownNamespaceError",
    "UnknownTargetError",
    "UnknownModelError",
    "UnknownStrategyError",
]

#: namespace names become registry path segments, so they must be plain
#: slugs — in particular '.'/'..' must not resolve outside the shard root
_NAMESPACE_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}")


class UnknownNamespaceError(KeyError):
    """The request names a namespace this gateway does not serve."""

    def __init__(self, namespace: str, known: list[str]):
        super().__init__(f"unknown namespace {namespace!r}; serving {sorted(known)}")
        self.namespace = namespace

    def __str__(self) -> str:  # KeyError str() wraps args in quotes
        return self.args[0]


class UnknownTargetError(KeyError):
    """The namespace exists but its zoo has no such target dataset."""

    def __init__(self, target: str, namespace: str):
        super().__init__(f"unknown target {target!r} in namespace {namespace!r}")
        self.target = target
        self.namespace = namespace

    def __str__(self) -> str:
        return self.args[0]


class UnknownModelError(ValueError):
    """A score_batch pair names a model the namespace's zoo lacks."""

    def __init__(self, model_id: str, namespace: str):
        super().__init__(f"unknown model {model_id!r} in namespace {namespace!r}")
        self.model_id = model_id
        self.namespace = namespace


class _Entry:
    """One strategy of a namespace: its service + router pair."""

    __slots__ = ("service", "router")

    def __init__(self, service: SelectionService, router: AsyncSelectionRouter):
        self.service = service
        self.router = router


class _Namespace:
    """One tenant: a zoo behind a spec-keyed strategy map."""

    def __init__(self, name: str, zoo):
        self.name = name
        self.zoo = zoo
        #: canonical spec -> _Entry; insertion order is registration order
        self.entries: dict[str, _Entry] = {}
        self.default_spec: str | None = None
        # Frozen at registration so per-request validation costs two set
        # probes, not two sorted list rebuilds (zoos are immutable
        # between explicit invalidations).
        self.targets = frozenset(zoo.target_names())
        self.models = frozenset(zoo.model_ids())

    def resolve_spec(self, spec: str | None) -> str:
        """The strategy-map key a request's ``strategy`` field selects.

        Alias spellings route like their canonical form (``random:0`` →
        ``random``), exactly as :func:`repro.strategies.get_strategy`
        would accept them; custom strategies with non-lowercase specs
        match exactly (they have no alias spellings to normalise).
        """
        if spec is None:
            return self.default_spec
        if spec in self.entries:
            return spec
        for candidate in (canonical_spec(spec), normalize_spec(spec)):
            if candidate in self.entries:
                return candidate
        raise UnknownStrategyError(spec, list(self.entries))

    def entry_for(self, spec: str | None) -> _Entry:
        """The (service, router) pair a request's ``strategy`` selects."""
        return self.entries[self.resolve_spec(spec)]

    def specs(self) -> list[str]:
        """Served strategy specs, default first."""
        others = sorted(s for s in self.entries if s != self.default_spec)
        return [self.default_spec, *others]


def _weighted_budget(strategy, max_pending_fits: int) -> int:
    """The cold-fit queue bound a strategy's ``fit_weight`` implies."""
    weight = float(getattr(strategy, "fit_weight", 1.0))
    if weight <= 0:
        raise ValueError(
            f"strategy {strategy.spec!r} has non-positive fit_weight {weight}"
        )
    return max(1, round(max_pending_fits / weight))


def _strategy_budgets(resolved, max_pending_fits: int, fit_budgets) -> dict[str, int]:
    """Per-strategy cold-fit queue bounds for one namespace's routers."""
    if fit_budgets is None:
        return {strat.spec: max_pending_fits for strat in resolved}
    explicit: dict[str, int] = {}
    if fit_budgets != "weighted":
        by_spec = {strat.spec: strat for strat in resolved}
        for spec, bound in dict(fit_budgets).items():
            if spec in by_spec:
                resolved_spec = spec
            elif canonical_spec(spec) in by_spec:
                resolved_spec = canonical_spec(spec)
            else:
                resolved_spec = normalize_spec(spec)
            if resolved_spec not in by_spec:
                raise ValueError(
                    f"fit budget names unknown strategy {spec!r}; "
                    f"namespace serves {sorted(by_spec)}"
                )
            if isinstance(bound, bool) or not isinstance(bound, int) or bound < 1:
                raise ValueError(
                    f"fit budget for {spec!r} must be an integer >= 1, "
                    f"got {bound!r}"
                )
            if resolved_spec in explicit:
                # two alias spellings of one strategy must not silently
                # last-win (same rule add_namespace applies to the map)
                raise ValueError(
                    f"fit budget for {spec!r} duplicates the budget "
                    f"already set for {resolved_spec!r}"
                )
            explicit[resolved_spec] = bound
    return {
        strat.spec: explicit.get(strat.spec, _weighted_budget(strat, max_pending_fits))
        for strat in resolved
    }


class SelectionGateway:
    """Route protocol requests across named (zoo, strategy map) namespaces.

    Parameters
    ----------
    registry_root:
        When given, every namespace added without an explicit registry
        gets the shard ``registry_root / <namespace name>`` (the
        namespace's own fingerprint-keyed registry tree lives below
        that).  ``None`` means namespaces run memory-only unless they
        bring their own registry.
    obs:
        The :class:`~repro.obs.Observability` plane every request is
        traced into (and whose metrics ``GET /v1/metrics`` renders).
        Defaults to a fresh plane with no event log; pass a
        :class:`~repro.obs.NullObservability` to disable collection
        entirely (the overhead benchmark's control arm).
    fleet:
        A started :class:`~repro.fleet.FleetCoordinator` shared by
        every ``fit_executor="socket"`` router the gateway builds.  The
        gateway owns its shutdown: :meth:`close` closes it (dropping
        all registered ``repro fit-worker`` daemons), and
        ``/v1/healthz`` lists its live fleet.
    """

    def __init__(
        self,
        registry_root: str | Path | None = None,
        *,
        obs: Observability | None = None,
        fleet=None,
    ):
        self._registry_root = Path(registry_root) if registry_root is not None else None
        self.obs = obs if obs is not None else Observability()
        self.fleet = fleet
        self._namespaces: dict[str, _Namespace] = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    # namespace management
    # ------------------------------------------------------------------ #
    def add_namespace(self, name: str, zoo,
                      strategy=None, *,
                      strategies: tuple = (),
                      registry: ArtifactRegistry | None = None,
                      cache_size: int = 32,
                      max_pending_fits: int = 8,
                      fit_budgets=None,
                      overflow: str = "reject",
                      retry_after_s: float = 0.5,
                      fit_workers: int = 2,
                      predict_workers: int = 4,
                      shed_start: float = 1.0,
                      fit_executor: str | None = None,
                      fit_timeout_s: float | None = None
                      ) -> SelectionService:
        """Register one namespace; returns its *default* service.

        ``strategy`` is the namespace's default (anything
        :func:`repro.strategies.resolve_strategy` accepts — strategy
        instance, spec string, TG config, or ``None`` for TG defaults);
        ``strategies`` adds further rankers to the namespace's map, each
        served under its canonical spec.  Every strategy shares the
        namespace's registry shard — artifacts stay disjoint because
        the shard is keyed by strategy fingerprint below that.

        ``fit_budgets`` sets *per-strategy* cold-fit queue bounds so a
        storm of heavy fits (a TG variant during a compare fan-out)
        cannot starve the ~ms strategies behind the same namespace:

        - ``None`` (default) — every strategy's router gets
          ``max_pending_fits``, the pre-budget behaviour;
        - ``"weighted"`` — each router gets ``max(1, round(
          max_pending_fits / strategy.fit_weight))`` slots, so heavy
          strategies (``fit_weight > 1``) queue shallow and cheap ones
          (``fit_weight < 1``) queue deep;
        - a ``{spec: bound}`` mapping — explicit bounds for the named
          strategies (alias spellings accepted), weighted defaults for
          the rest; a spec naming no registered strategy is a
          :class:`ValueError` (an ignored typo would silently serve the
          wrong budget).

        ``fit_executor`` selects where every router in the namespace
        runs its cold fits: ``"thread"`` (in-process pool),
        ``"process"`` (each router's own :class:`~repro.fleet.LocalFleet`
        of spawned workers — true multi-core fitting), ``"socket"`` (the
        gateway's shared :class:`~repro.fleet.FleetCoordinator`
        dispatching to ``repro fit-worker`` daemons; requires the
        gateway's ``fleet``),
        or ``None`` to follow the ``REPRO_FIT_EXECUTOR`` environment
        default.  ``fit_timeout_s`` bounds a process/socket-mode fit
        before its coalesced group is shed with a typed error.
        """
        if not _NAMESPACE_NAME.fullmatch(name):
            raise ValueError(
                f"namespace name {name!r} must match "
                f"{_NAMESPACE_NAME.pattern!r} (it becomes a registry "
                "path segment)"
            )
        if name in self._namespaces:
            raise ValueError(f"namespace {name!r} already registered")
        if registry is None and self._registry_root is not None:
            registry = ArtifactRegistry(self._registry_root / name)

        ns = _Namespace(name, zoo)
        resolved = [resolve_strategy(strategy)]
        resolved += [resolve_strategy(s) for s in strategies]
        budgets = _strategy_budgets(resolved, max_pending_fits, fit_budgets)
        for strat in resolved:
            if strat.spec in ns.entries:
                raise ValueError(
                    f"strategy {strat.spec!r} registered twice in "
                    f"namespace {name!r}"
                )
            service = SelectionService(
                zoo, strat, registry=registry, cache_size=cache_size
            )
            router = AsyncSelectionRouter(
                service,
                max_pending_fits=budgets[strat.spec],
                overflow=overflow,
                retry_after_s=retry_after_s,
                fit_workers=fit_workers,
                predict_workers=predict_workers,
                shed_start=shed_start,
                fit_executor=fit_executor,
                fit_timeout_s=fit_timeout_s,
                fleet=self.fleet,
            )
            ns.entries[strat.spec] = _Entry(service, router)
            self.obs.watch_queue_depth(
                name, strat.spec, lambda r=router: r.pending_fits
            )
        ns.default_spec = resolved[0].spec
        self._namespaces[name] = ns
        return ns.entries[ns.default_spec].service

    def namespaces(self) -> list[str]:
        return sorted(self._namespaces)

    def strategies(self, namespace: str) -> list[str]:
        """Strategy specs a namespace serves, default first."""
        return self._get(namespace).specs()

    def service(self, namespace: str, strategy: str | None = None) -> SelectionService:
        return self._get(namespace).entry_for(strategy).service

    def router(
        self, namespace: str, strategy: str | None = None
    ) -> AsyncSelectionRouter:
        return self._get(namespace).entry_for(strategy).router

    def _get(self, namespace: str) -> _Namespace:
        ns = self._namespaces.get(namespace)
        if ns is None:
            raise UnknownNamespaceError(namespace, list(self._namespaces))
        return ns

    # ------------------------------------------------------------------ #
    # protocol entry points
    # ------------------------------------------------------------------ #
    def _check_names(self, ns: _Namespace, targets: set[str], models: set[str]) -> None:
        """Typed 404/400-able errors instead of service KeyErrors.

        Targets are checked against the zoo's *target* roster (the same
        contract ``repro rank`` enforces) — source datasets are rankable
        in principle but not served, so clients cannot burn fit-queue
        capacity on them.
        """
        unknown_targets = targets - ns.targets
        if unknown_targets:
            raise UnknownTargetError(sorted(unknown_targets)[0], ns.name)
        unknown_models = models - ns.models
        if unknown_models:
            raise UnknownModelError(sorted(unknown_models)[0], ns.name)

    async def rank(
        self, request: RankRequest, *, request_id: str | None = None
    ) -> RankResponse:
        ns = self._get(request.namespace)
        spec = ns.resolve_spec(request.strategy)
        self._check_names(ns, {request.target}, set())
        # request_id kwarg: transport-level id (X-Request-Id header);
        # the body field wins so the response echo matches the request
        with self.obs.request(
            "rank",
            namespace=ns.name,
            strategy=spec,
            request_id=request.request_id or request_id,
        ):
            return await ns.entries[spec].router.handle(request)

    async def score_batch(
        self, request: ScoreBatchRequest, *, request_id: str | None = None
    ) -> ScoreBatchResponse:
        ns = self._get(request.namespace)
        spec = ns.resolve_spec(request.strategy)
        self._check_names(
            ns, {t for _, t in request.pairs}, {m for m, _ in request.pairs}
        )
        with self.obs.request(
            "score_batch",
            namespace=ns.name,
            strategy=spec,
            request_id=request.request_id or request_id,
        ):
            return await ns.entries[spec].router.handle(request)

    async def compare(
        self, request: CompareRequest, *, request_id: str | None = None
    ) -> CompareResponse:
        """Fan one target across a namespace's strategy map, concurrently.

        Every fanned-out strategy answers through its *own* router, so
        the per-strategy single-flight coalescing, queue bounds, and
        shedding semantics hold exactly as they would for independent
        ``/v1/rank`` traffic.  A strategy shed by its router's
        backpressure is marked ``"shed"`` in the response (with its
        ``retry_after_s`` hint) instead of failing the whole comparison;
        any other failure propagates — a broken strategy is a server
        bug, not a partial answer.
        """
        ns = self._get(request.namespace)
        self._check_names(ns, {request.target}, set())
        reference = ns.resolve_spec(request.reference)
        if request.strategies is None:
            specs = ns.specs()
        else:
            specs = []
            for spec in request.strategies:
                resolved = ns.resolve_spec(spec)
                if resolved not in specs:
                    specs.append(resolved)
            if reference not in specs:  # correlations need its ranking
                specs.insert(0, reference)
        top_k = min(request.top_k or DEFAULT_COMPARE_TOP_K, len(ns.models))

        async def fan_out(spec: str):
            try:
                return await ns.entries[spec].router.rank(request.target)
            except QueueFullError as exc:
                return exc

        # one trace covers the whole fan-out: gather's subtasks copy the
        # context at creation, so every strategy's fit/predict spans
        # attach to this compare request (outcome = most severe fanned)
        with self.obs.request(
            "compare",
            namespace=ns.name,
            strategy="map",
            request_id=request.request_id or request_id,
        ):
            answers = await asyncio.gather(*(fan_out(spec) for spec in specs))
        rankings: dict[str, list] = {}
        sheds: dict[str, float] = {}
        for spec, answer in zip(specs, answers):
            if isinstance(answer, QueueFullError):
                sheds[spec] = float(answer.retry_after_s)
            else:
                rankings[spec] = answer
        latencies = {spec: ns.entries[spec].router.latency_summary() for spec in specs}
        results = build_comparisons(
            rankings, sheds, reference=reference, top_k=top_k, latencies=latencies
        )
        return CompareResponse.build(request, reference, top_k, results)

    async def handle(self, request):
        """Dispatch one protocol request to its namespace's router(s)."""
        if isinstance(request, RankRequest):
            return await self.rank(request)
        if isinstance(request, ScoreBatchRequest):
            return await self.score_batch(request)
        if isinstance(request, CompareRequest):
            return await self.compare(request)
        raise TypeError(f"unsupported request type {type(request).__name__}")

    async def warmup(self, namespace: str | None = None) -> dict[str, dict[str, float]]:
        """Pre-fit targets — one namespace or all; seconds per target.

        Every strategy in a namespace's map is warmed; per-target
        seconds sum across strategies.
        """
        names = [namespace] if namespace is not None else self.namespaces()
        out: dict[str, dict[str, float]] = {}
        for name in names:
            ns = self._get(name)
            totals: dict[str, float] = {}
            for entry in ns.entries.values():
                for target, seconds in (await entry.router.warmup()).items():
                    totals[target] = totals.get(target, 0.0) + seconds
            out[name] = totals
        return out

    # ------------------------------------------------------------------ #
    # stats
    # ------------------------------------------------------------------ #
    def stats(self) -> StatsResponse:
        """Per-namespace summaries + fleet-wide aggregate.

        Each namespace row pools its strategies' *raw* snapshots, and
        the fleet row pools every namespace — counters sum, latency
        windows extend — so all percentiles are computed over every
        query, not averaged from partial percentiles.  The additive
        ``strategies`` block breaks each namespace down by spec with its
        *measured* fit cost (``fit_ms_p50``/``fit_ms_p95``).
        """
        per_namespace: dict[str, dict[str, float]] = {}
        fleet_service, fleet_router = ServiceStats(), RouterStats()
        for name, ns in sorted(self._namespaces.items()):
            ns_service, ns_router = ServiceStats(), RouterStats()
            for entry in ns.entries.values():
                service_snap, router_snap = entry.router.stats_snapshot()
                ns_service.merge(service_snap)
                ns_router.merge(router_snap)
            per_namespace[name] = {**ns_service.summary(), **ns_router.summary()}
            fleet_service.merge(ns_service)
            fleet_router.merge(ns_router)
        fleet = {
            **fleet_service.summary(),
            **fleet_router.summary(),
            "namespaces": float(len(self._namespaces)),
        }
        return StatsResponse(
            namespaces=per_namespace, fleet=fleet, strategies=self.fit_costs()
        )

    def fit_costs(self) -> dict[str, dict[str, dict[str, float]]]:
        """Measured per-strategy fit cost: namespace -> spec -> summary.

        Embedded in ``/v1/stats`` (the ``strategies`` block) and the
        healthz listing, pairing every declared ``fit_weight`` with the
        fit latency its router actually observed.
        """
        return {
            name: {
                spec: ns.entries[spec].router.fit_cost_summary()
                for spec in ns.specs()
            }
            for name, ns in sorted(self._namespaces.items())
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def prestart_fit_planes(self) -> int:
        """Ready every remote fit plane now.

        Process-mode routers spawn their local fleets' workers (otherwise
        charged to the first cold request); the shared socket fleet —
        counted once, not per router — reports its live ``fit-worker``
        daemons.  Returns the number of workers confirmed live (0 when
        every router runs the thread executor).
        """
        started = 0
        for ns in self._namespaces.values():
            for entry in ns.entries.values():
                if entry.router.fit_executor != "socket":
                    started += entry.router.prestart_fit_plane()
        if self.fleet is not None:
            started += self.fleet.prestart()
        return started

    def fleet_summary(self) -> dict | None:
        """The fleet coordinator's live snapshot; None without a fleet."""
        return None if self.fleet is None else self.fleet.fleet_summary()

    def close(self) -> None:
        """Shut every namespace's routers (and the fleet) down; idempotent."""
        if not self._closed:
            self._closed = True
            for ns in self._namespaces.values():
                for entry in ns.entries.values():
                    entry.router.close()
            if self.fleet is not None:
                self.fleet.close()

    async def __aenter__(self) -> "SelectionGateway":
        return self

    async def __aexit__(self, *exc_info) -> None:
        self.close()
