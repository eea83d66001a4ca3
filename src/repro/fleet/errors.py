"""Typed fit-plane failures shared by every remote cold fit.

The coordinator and the worker daemon shed a router's coalesced group
with *the same* typed errors in process and socket modes, so the
hierarchy lives below both ``serving`` and ``fleet`` in the import DAG.

The contract:

- :class:`FitPlaneError` and subclasses mean the *plane* failed — the
  infrastructure running the fit, not the fit itself.  An exception
  raised by ``strategy.fit`` keeps its type when that type is builtin or
  from ``repro.*``; any other type surfaces as ``RuntimeError`` carrying
  the worker's message (see
  :func:`repro.fleet.coordinator._revive_error`).
- A plane error sheds the whole coalesced group for its target; the
  router stays serviceable for other targets.
"""

from __future__ import annotations

__all__ = [
    "FitPlaneError",
    "FitWorkerCrashError",
    "FitTimeoutError",
    "NoWorkersError",
    "WireError",
]


class FitPlaneError(RuntimeError):
    """Base class for fit-plane failures (not fit exceptions)."""


class FitWorkerCrashError(FitPlaneError):
    """A worker died mid-fit (disconnected, killed, or missed its
    heartbeats with the fit outstanding) and the one retry failed too."""


class FitTimeoutError(FitPlaneError):
    """A fit exceeded ``fit_timeout_s``; its coalesced group is shed."""


class NoWorkersError(FitPlaneError):
    """The fleet has no live registered worker to dispatch a fit to."""


class WireError(FitPlaneError):
    """A malformed or over-sized fleet wire frame; the connection that
    produced it is dropped (treated as a worker death)."""
