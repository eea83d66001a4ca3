"""The fit fleet: distributed cold fitting over the artifact boundary.

Cold fits cross the strategy pack/unpack boundary over a socket, so
rankings stay instant at the edge while heavy TransferGraph fitting
happens in other processes or on other machines — the operational shape
evaluation-free selectors assume.  Both remote fit executors are this
package: ``fit_executor="socket"`` dispatches to ``repro fit-worker``
daemons, and ``fit_executor="process"`` is the same coordinator on
loopback with spawned local workers.

- :mod:`repro.fleet.errors` — the typed :class:`FitPlaneError` family
  remote fits shed with;
- :mod:`repro.fleet.work` — the worker-side fit task (hydrate → fit →
  warm → pack), which is what keeps thread/process/socket artifacts
  byte-identical;
- :mod:`repro.fleet.wire` — the length-prefixed, versioned, byte-stable
  frame protocol (HELLO/CHALLENGE/AUTH/REGISTER/HEARTBEAT/FIT/
  FIT_RESULT/FIT_ERROR) and the mutual HMAC fleet-secret handshake;
- :mod:`repro.fleet.coordinator` — :class:`FleetCoordinator`, the
  gateway-side registry/heartbeat/dispatch loop with least-outstanding
  worker selection and retry-once failover;
- :mod:`repro.fleet.worker` — :class:`FitWorker`, the
  ``repro fit-worker`` daemon;
- :mod:`repro.fleet.local` — :class:`LocalFleet`, the router-owned
  loopback coordinator plus spawned workers behind
  ``fit_executor="process"``.

Layering: ``serving`` imports ``fleet`` (the router's remote fit
executors), never the reverse — enforced by the
``import-layering`` rule in ``repro analyze``.
"""

from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.errors import (
    FitPlaneError,
    FitTimeoutError,
    FitWorkerCrashError,
    NoWorkersError,
    WireError,
)
from repro.fleet.local import LocalFleet
from repro.fleet.work import run_fit, zoo_ref_for
from repro.fleet.worker import FitWorker

__all__ = [
    "FleetCoordinator",
    "FitWorker",
    "LocalFleet",
    "FitPlaneError",
    "FitTimeoutError",
    "FitWorkerCrashError",
    "NoWorkersError",
    "WireError",
    "run_fit",
    "zoo_ref_for",
]
