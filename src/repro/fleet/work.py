"""Worker-side fit execution: hydrate the zoo, fit, warm, pack.

One module runs the actual cold fit for every remote fit: the
:class:`~repro.fleet.worker.FitWorker` — a ``repro fit-worker`` daemon
or a local fleet's spawned child (:mod:`repro.fleet.local`) — calls
:func:`run_fit` for each FIT frame.  That is what makes thread-,
process- and socket-fitted artifacts byte-identical: the payload
crossing the boundary is always the strategy-packed ``(meta, arrays)``
pair plus a span-record list, never a live pipeline.

Zoo hydration is paid once per zoo fingerprint per worker process:
:data:`_ZOO_CACHE` is a module global, so a long-lived worker re-uses
its hydrated zoo across fits.  Zoos with a :class:`~repro.zoo.ZooConfig`
cross the boundary as a config reference and re-hydrate from the local
disk cache (or a deterministic rebuild); anything else — stub zoos in
tests — ships whole via pickle.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass

from repro.fleet.errors import FitPlaneError
from repro.obs.trace import Trace, activate, deactivate, span
from repro.zoo.cache import load_zoo, zoo_cache_key
from repro.zoo.zoo import ZooConfig, build_zoo

__all__ = ["zoo_ref_for", "hydrate_zoo", "run_fit"]


# ---------------------------------------------------------------------- #
# zoo references: what crosses the boundary instead of a live zoo
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class _ConfigZooRef:
    """Re-hydrate from a :class:`ZooConfig`: disk cache, else rebuild."""

    config: ZooConfig
    cache_dir: str | None

    @property
    def key(self) -> str:
        return zoo_cache_key(self.config)


@dataclass(frozen=True)
class _PickleZooRef:
    """A directly-pickled zoo (test stubs without a ZooConfig)."""

    payload: bytes
    key: str


def zoo_ref_for(zoo, cache_dir=None):
    """The picklable reference a worker re-hydrates ``zoo`` from.

    Zoos built through :func:`repro.zoo.get_or_build_zoo` carry a
    :class:`ZooConfig` and re-hydrate from the disk cache (or a
    deterministic rebuild); anything else — stub zoos in tests — must
    itself be picklable and ships whole.
    """
    config = getattr(zoo, "config", None)
    if isinstance(config, ZooConfig):
        return _ConfigZooRef(
            config=config, cache_dir=None if cache_dir is None else str(cache_dir)
        )
    try:
        payload = pickle.dumps(zoo)
    except Exception as exc:
        raise FitPlaneError(
            f"zoo {type(zoo).__name__} has no ZooConfig and cannot be "
            f"pickled for a fit worker: {exc}"
        ) from exc
    digest = hashlib.blake2b(payload, digest_size=10).hexdigest()
    return _PickleZooRef(payload=payload, key=f"pickled-{digest}")


# ---------------------------------------------------------------------- #
# worker side
# ---------------------------------------------------------------------- #
#: per-worker-process zoo cache, keyed by zoo fingerprint — hydration
#: (disk load or rebuild) is paid once per worker, not once per fit
_ZOO_CACHE: dict[str, object] = {}


def hydrate_zoo(ref):
    """The zoo ``ref`` names, hydrated once per worker process."""
    zoo = _ZOO_CACHE.get(ref.key)
    if zoo is not None:
        return zoo
    if isinstance(ref, _PickleZooRef):
        zoo = pickle.loads(ref.payload)
    else:
        # Mirrors get_or_build_zoo WITHOUT the cache write: concurrent
        # workers racing identical np.savez calls onto one cache path
        # could tear it for a later loader, and the rebuild is
        # deterministic in the config anyway.
        zoo = load_zoo(ref.config, ref.cache_dir)
        if zoo is None:
            zoo = build_zoo(ref.config)
        if ref.config.include_lora:
            zoo.ensure_lora_history()
    _ZOO_CACHE[ref.key] = zoo
    return zoo


def _fit_in_worker(strategy_blob: bytes, zoo_ref, target: str):
    """Worker entrypoint: hydrate, fit, warm, pack.

    The warm predict materialises the target's lazy transferability
    normalisation *before* packing, so the derived scores the fit
    recorded into this process's catalog copy fold back to the parent
    inside the assembler state.  Spans are collected on a local trace
    and returned as records; the parent grafts them onto the live
    request trace (:func:`repro.obs.trace.graft_spans`).
    """
    strategy = pickle.loads(strategy_blob)
    with span("fit.zoo_hydrate"):
        zoo = hydrate_zoo(zoo_ref)
    fitted = strategy.fit(zoo, target)
    with span("fit.warm_predict"):
        fitted.predict(zoo.model_ids())
    with span("fit.artifact_pack"):
        meta, arrays = strategy.pack(fitted, zoo)
    return meta, arrays


def run_fit(strategy_blob: bytes, zoo_ref, target: str):
    """One remote cold fit; returns ``(meta, arrays, span records)``."""
    trace = Trace("fit-worker", "fit_worker")
    tokens = activate(trace)
    try:
        meta, arrays = _fit_in_worker(strategy_blob, zoo_ref, target)
    finally:
        deactivate(tokens)
        trace.finish()
    return meta, arrays, trace.span_tree()

