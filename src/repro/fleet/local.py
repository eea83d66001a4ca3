"""LocalFleet: ``fit_executor="process"`` as a router-owned loopback fleet.

Process mode is the socket fleet on one box: a
:class:`~repro.fleet.coordinator.FleetCoordinator` bound to
``127.0.0.1:0`` plus ``workers`` local
:class:`~repro.fleet.worker.FitWorker` processes.  Process and socket
modes therefore share one dispatch path (coordinator → ``FitWorker`` →
:func:`~repro.fleet.work.run_fit`) and one failure table, retry-once
failover included.

- **Spawned, not exec'd.** Workers are ``multiprocessing`` ``spawn``
  children: spawn hands the parent's ``sys.path`` to the child, so a
  strategy class from any importable module unpickles by reference, and
  unlike ``fork`` it never copies a multi-threaded server's held locks.
- **Always authenticated.** Workers unpickle FIT frames, so each fleet
  draws a fresh 32-byte secret and hands it to its children through the
  spawn arguments — never argv or the environment — and every
  registration runs the mutual HMAC handshake.
- **Dead workers are replaced.** Before each dispatch the owner respawns
  children that died (a SIGKILL, an OOM kill) and waits for them to
  register; :meth:`LocalFleet.prestart` does the same up front, and each
  child hydrates the zoo before it connects.  A replacement that exits
  before registering sheds the fit with
  :class:`~repro.fleet.errors.NoWorkersError`.
- **Nothing leaks.** :meth:`LocalFleet.close` closes the coordinator
  (idle workers see EOF and exit), joins the children with a short
  bound, and terminates any left — e.g. one still running a timed-out
  fit as an orphan.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import secrets
import signal
import threading
import time

from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.errors import FitPlaneError, NoWorkersError
from repro.fleet.work import hydrate_zoo, zoo_ref_for
from repro.fleet.worker import FitWorker

__all__ = ["LocalFleet"]

#: how long close() lets children exit on their own before terminating
_JOIN_S = 1.0

#: registration poll interval while children start
_POLL_S = 0.02


def _serve_local(port: int, secret: bytes, zoo_ref) -> None:
    """Spawn-child entrypoint: hydrate the zoo, then serve fits.

    The child ignores SIGINT: its lifetime belongs to the owning fleet,
    and a Ctrl-C aimed at the server should not print one traceback per
    worker.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if zoo_ref is not None:
        hydrate_zoo(zoo_ref)
    try:
        asyncio.run(FitWorker("127.0.0.1", port, secret=secret).run())
    except ConnectionError:
        pass  # the fleet closed before this child connected


class LocalFleet(FleetCoordinator):
    """A loopback coordinator that owns ``workers`` spawned fit workers.

    Workers start lazily on the first fit (or eagerly via
    :meth:`prestart`); :meth:`submit_fit` keeps the coordinator's
    contract and adds the respawn step in front of it.
    """

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        super().__init__("127.0.0.1", 0, secret=secrets.token_bytes(32))
        self.workers = workers
        self._spawn_lock = threading.Lock()
        self._children: list = []  # guarded by: self._spawn_lock

    def prestart(self, zoo=None) -> int:
        """Spawn every worker now, each hydrating ``zoo`` before it
        registers; returns the worker count."""
        self._replace_dead(zoo)
        return self.workers

    def submit_fit(self, strategy, zoo, target: str, *, timeout_s=None):
        self._replace_dead(zoo)
        return super().submit_fit(strategy, zoo, target, timeout_s=timeout_s)

    def close(self) -> None:
        super().close()
        with self._spawn_lock:
            children, self._children = self._children, []
        deadline = time.monotonic() + _JOIN_S
        for child in children:
            child.join(max(0.0, deadline - time.monotonic()))
        for child in children:
            if child.is_alive():
                child.terminate()
                child.join()

    def _replace_dead(self, zoo) -> None:
        """Start the listener once, respawn dead children, and block
        until every live child has registered (matched by pid)."""
        with self._spawn_lock:
            if self._closed:
                raise FitPlaneError("fleet coordinator is closed")
            if self.address is None:
                self.start()
            spawn = multiprocessing.get_context("spawn")
            ref, fresh = None, []
            while True:
                for child in fresh:
                    if child.exitcode is not None:
                        raise NoWorkersError(
                            f"local fit worker pid {child.pid} exited with "
                            f"code {child.exitcode} before registering"
                        )
                self._children = [c for c in self._children if c.is_alive()]
                while len(self._children) < self.workers:
                    if ref is None and zoo is not None:
                        ref = zoo_ref_for(zoo)
                    child = spawn.Process(
                        target=_serve_local,
                        args=(self.address[1], self._secret, ref),
                        daemon=True,
                    )
                    child.start()
                    fresh.append(child)
                    self._children.append(child)
                registered = {w["pid"] for w in self.fleet_summary()["details"]}
                if all(c.pid in registered for c in self._children):
                    return
                if self._closed:
                    raise FitPlaneError("fleet coordinator is closed")
                time.sleep(_POLL_S)
