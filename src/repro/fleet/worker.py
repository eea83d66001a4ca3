"""FitWorker: the `repro fit-worker` daemon serving cold fits.

A worker is an asyncio client that connects to a
:class:`~repro.fleet.coordinator.FleetCoordinator`, introduces itself
with HELLO, and then serves FIT frames until the coordinator closes the
connection (or the process dies).  The fit itself —
:func:`repro.fleet.work.run_fit`: hydrate the zoo, fit, warm-predict,
pack — runs in a thread-pool executor so the worker's event loop stays
responsive for heartbeats while a multi-second TG fit is in flight.
Zoo hydration is cached per zoo fingerprint in the process-global
:data:`repro.fleet.work._ZOO_CACHE`, so a long-lived worker pays the
disk load once.

Error discipline: an ordinary exception from
``strategy.fit`` ships back inside FIT_ERROR (``kind="fit"``) as its
``(module, type, message)`` strings — never pickled, so the gateway
needs no trust in worker bytes — and re-raises with its original type
in the parent when that names a ``builtins``/``repro.*`` exception,
while worker-side infrastructure failures (zoo hydration, an
unencodable result) ship as ``kind="plane"`` and surface as
:class:`~repro.fleet.errors.FitPlaneError`.  The worker never dies on a
failed fit — only on disconnect.  ``fits_done`` counts *successful*
fits only (failures are visible as FIT_ERROR outcomes on the
coordinator), so healthz summaries mean the same thing on both ends.

When the coordinator was started with a fleet secret, pass the same
``secret`` here: registration then runs the mutual CHALLENGE/AUTH
handshake from :mod:`repro.fleet.wire`, and the worker refuses a
coordinator that cannot prove knowledge of the secret — FIT frames
carry pickled payloads, so the worker must authenticate the
coordinator, not just the reverse.
"""

from __future__ import annotations

import asyncio
import hmac
import os
import pickle
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.fleet import wire
from repro.fleet.errors import FitPlaneError, WireError
from repro.fleet.work import run_fit

__all__ = ["FitWorker"]


class FitWorker:
    """One fit-serving daemon process (or in-process test double).

    Parameters
    ----------
    host, port:
        The coordinator's fleet listener.
    name:
        Human-readable worker name, embedded in the assigned worker id
        (default ``host-pid``).
    concurrency:
        Fits this worker runs at once (executor threads).  The default
        1 keeps one fit per worker — the coordinator's least-outstanding
        dispatch then spreads a multi-target burst across the fleet.
    secret:
        Shared fleet-auth secret (``--fleet-secret`` /
        ``REPRO_FLEET_SECRET``); must match the coordinator's.  None
        registers unauthenticated with an open coordinator — and
        refuses a coordinator that demands authentication.
    echo:
        Optional ``print``-like callable for lifecycle lines (the CLI
        passes one; tests and benchmarks leave it None).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        name: str | None = None,
        concurrency: int = 1,
        secret: str | bytes | None = None,
        echo=None,
    ):
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.host = host
        self.port = port
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.concurrency = concurrency
        self._secret = secret
        self.worker_id: str | None = None
        self.fits_done = 0
        self._outstanding = 0
        self._echo = echo
        #: test hook — False suppresses heartbeats so reaping is testable
        self._send_heartbeats = True

    def _say(self, message: str) -> None:
        if self._echo is not None:
            self._echo(message)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def run(self) -> None:
        """Connect, register, serve fits until the coordinator hangs up."""
        reader, writer = await asyncio.open_connection(self.host, self.port)
        pool = ThreadPoolExecutor(
            max_workers=self.concurrency, thread_name_prefix="fleet-fit"
        )
        write_lock = asyncio.Lock()
        heartbeat_task = None
        # Strong references: the loop only weakly references tasks, so a
        # bare create_task could be collected mid-fit, silently dropping
        # the reply and stranding the coordinator until fit_timeout_s.
        fit_tasks: set[asyncio.Task] = set()
        try:
            nonce = wire.new_nonce()
            await wire.write_frame(
                writer,
                wire.Hello(worker_name=self.name, pid=os.getpid(), nonce=nonce),
            )
            registration = await wire.read_frame(reader)
            if isinstance(registration, wire.Challenge):
                registration = await self._answer_challenge(
                    reader, writer, registration, nonce
                )
            elif self._secret is not None:
                raise FitPlaneError(
                    "coordinator did not request fleet-secret "
                    "authentication but this worker has one configured — "
                    "refusing to take fits from an unauthenticated "
                    "coordinator"
                )
            if not isinstance(registration, wire.Register):
                raise FitPlaneError(
                    f"coordinator answered HELLO with "
                    f"{type(registration).__name__}, not REGISTER"
                )
            self.worker_id = registration.worker_id
            self._say(
                f"fit-worker {self.name!r} registered as "
                f"{self.worker_id} with {self.host}:{self.port} "
                f"(concurrency {self.concurrency})"
            )
            heartbeat_task = asyncio.create_task(
                self._heartbeats(writer, write_lock, registration.heartbeat_interval_s)
            )
            while True:
                frame = await wire.read_frame(reader)
                if isinstance(frame, wire.Fit):
                    task = asyncio.create_task(
                        self._handle_fit(frame, writer, write_lock, pool)
                    )
                    fit_tasks.add(task)
                    task.add_done_callback(fit_tasks.discard)
        except (asyncio.IncompleteReadError, ConnectionError, OSError, WireError):
            self._say(
                f"fit-worker {self.worker_id or self.name!r}: "
                f"coordinator connection closed"
            )
        finally:
            if heartbeat_task is not None:
                heartbeat_task.cancel()
            for task in fit_tasks:
                task.cancel()
            pool.shutdown(wait=False)
            writer.close()

    async def _answer_challenge(self, reader, writer, challenge, nonce):
        """Mutual auth: verify the coordinator's proof, send ours back."""
        if self._secret is None:
            raise FitPlaneError(
                f"coordinator {self.host}:{self.port} requires a fleet "
                f"secret — start this worker with --fleet-secret / "
                f"REPRO_FLEET_SECRET"
            )
        if not hmac.compare_digest(
            challenge.proof, wire.coordinator_proof(self._secret, nonce)
        ):
            raise FitPlaneError(
                f"coordinator {self.host}:{self.port} failed fleet-secret "
                f"authentication — refusing to take fits from it"
            )
        await wire.write_frame(
            writer, wire.Auth(proof=wire.worker_proof(self._secret, challenge.nonce))
        )
        return await wire.read_frame(reader)

    def run_in_thread(self) -> threading.Thread:
        """Serve from a daemon thread (tests/benchmarks); returns it.

        The thread exits when the coordinator closes the connection —
        closing the coordinator is how a test stops its workers.
        """
        thread = threading.Thread(
            target=lambda: asyncio.run(self.run()),
            name=f"fleet-worker-{self.name}",
            daemon=True,
        )
        thread.start()
        return thread

    # ------------------------------------------------------------------ #
    # frame handlers
    # ------------------------------------------------------------------ #
    async def _heartbeats(self, writer, write_lock, interval_s: float) -> None:
        try:
            while True:
                await asyncio.sleep(interval_s)
                if not self._send_heartbeats:
                    continue
                async with write_lock:
                    await wire.write_frame(
                        writer,
                        wire.Heartbeat(
                            worker_id=self.worker_id,
                            outstanding=self._outstanding,
                            fits_done=self.fits_done,
                        ),
                    )
        except (ConnectionError, OSError):
            pass  # run()'s reader loop notices the dead connection

    def _execute(self, frame: wire.Fit):
        """Runs on the fit executor: unpickle the zoo ref, fit, pack."""
        try:
            zoo_ref = pickle.loads(frame.zoo_blob)
        except Exception as exc:
            raise FitPlaneError(
                f"fit {frame.fit_id}: zoo reference does not unpickle: {exc}"
            ) from exc
        return run_fit(frame.strategy_blob, zoo_ref, frame.target)

    async def _handle_fit(self, frame, writer, write_lock, pool) -> None:
        loop = asyncio.get_running_loop()
        self._outstanding += 1
        try:
            meta, arrays, spans = await loop.run_in_executor(
                pool, self._execute, frame
            )
            reply = wire.FitResult(
                fit_id=frame.fit_id, meta=meta, spans=spans, arrays=arrays
            )
            self.fits_done += 1  # successes only; both ends agree
        except Exception as exc:
            reply = wire.FitError(
                fit_id=frame.fit_id,
                kind="plane" if isinstance(exc, FitPlaneError) else "fit",
                message=str(exc),
                exc_module=type(exc).__module__,
                exc_type=type(exc).__name__,
            )
        finally:
            self._outstanding -= 1
        try:
            async with write_lock:
                await wire.write_frame(writer, reply)
        except WireError as exc:
            # An unencodable FIT_RESULT (non-JSON meta) must still shed
            # the parent's coalesced group typed, not strand it.
            fallback = wire.FitError(
                fit_id=frame.fit_id,
                kind="plane",
                message=f"fit result failed to encode: {exc}",
            )
            try:
                async with write_lock:
                    await wire.write_frame(writer, fallback)
            except (ConnectionError, OSError):
                pass
        except (ConnectionError, OSError):
            pass  # connection died; run()'s reader loop is shutting down
