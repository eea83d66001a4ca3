"""The benchmark's HTTP/1.1 client and the closed-loop load generator.

:class:`HTTPClient` is the standard library's ``HTTPConnection``, which
keeps its connection open when a response allows it (a
``Content-Length`` or chunked body, no ``Connection: close``, not
HTTP/1.0) and reconnects otherwise; the client counts every connect.  A
server that gains keep-alive is therefore measured as such without
changing the benchmark.

The load generator is closed-loop: each caller is a thread with its own
connection that sends its next request only after the previous reply's
last byte arrived, the way selection scripts wait for their ranking.
A request is timed from the moment it is due to be sent, including any
connect it needs, to its last body byte.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass


class HTTPError(Exception):
    """The connection failed or the peer sent an unparsable response."""


class HTTPClient(http.client.HTTPConnection):
    """One client-side HTTP/1.1 connection, reopened on demand."""

    def __init__(self, host: str, port: int, timeout_s: float = 120.0):
        super().__init__(host, port, timeout=timeout_s)
        self.connects = 0

    def connect(self) -> None:
        super().connect()
        self.connects += 1

    def fetch(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: tuple[tuple[str, str], ...] = (),
    ) -> tuple[int, dict[str, str], bytes]:
        """Send one request; returns (status, lower-cased headers, body).

        A reused connection the server has meanwhile closed fails before
        any response arrives; that request is retried once on a fresh
        connection.
        """
        fields = {"Content-Type": "application/json", **dict(headers)}
        for retry in (False, True):
            reused = self.sock is not None
            try:
                self.request(method, path, body, fields)
                response = self.getresponse()
                payload = response.read()
            except (ConnectionResetError, BrokenPipeError) as exc:
                self.close()  # RemoteDisconnected is a ConnectionResetError
                if reused and not retry:
                    continue
                raise HTTPError(str(exc) or type(exc).__name__) from exc
            except (OSError, http.client.HTTPException) as exc:
                self.close()
                raise HTTPError(str(exc) or type(exc).__name__) from exc
            received = {name.lower(): value for name, value in response.getheaders()}
            return response.status, received, payload
        raise AssertionError("unreachable")


@dataclass
class Result:
    """One request as the load generator saw it."""

    index: int  # position in the request sequence
    request_id: str
    status: int  # 0: transport failure
    start: float
    end: float
    body: bytes

    @property
    def latency_s(self) -> float:
        return self.end - self.start


def send(client: HTTPClient, request, index: int, rid: str) -> Result:
    """One timed request; a transport failure is a ``status == 0`` result."""
    start = time.perf_counter()
    try:
        status, _, body = client.fetch(
            "POST", request.path, request.body, (("X-Request-Id", rid),)
        )
    except HTTPError:
        status, body = 0, b""
    return Result(index, rid, status, start, time.perf_counter(), body)


def run_warm(
    host: str,
    port: int,
    requests,
    *,
    seconds: float,
    min_requests: int,
    max_seconds: float,
    prefix: str,
    offset: int = 0,
    connections: int = 2,
) -> tuple[list[Result], float, int]:
    """Closed loop over ``requests`` (cycled) until both bounds are met.

    Stops early only once ``max_seconds`` have passed.  Requests are
    taken in sequence order, starting at ``offset``, by whichever caller
    is free.  Returns (results, wall seconds, connects).
    """
    results: list[Result] = []
    lock = threading.Lock()
    counter = iter(range(offset, 1 << 62))
    clients = [HTTPClient(host, port) for _ in range(connections)]
    begin = time.perf_counter()

    def caller(client: HTTPClient) -> None:
        while True:
            with lock:
                elapsed = time.perf_counter() - begin
                enough = len(results) >= min_requests and elapsed >= seconds
                if enough or elapsed >= max_seconds:
                    return
                index = next(counter)
            request = requests[index % len(requests)]
            result = send(client, request, index, f"{prefix}{index}")
            with lock:
                results.append(result)

    _run_callers(caller, clients)
    wall = time.perf_counter() - begin
    return results, wall, sum(c.connects for c in clients)


def run_cold(
    host: str,
    port: int,
    targets: list[str],
    make_request,
    *,
    start: int,
    count: int,
    prefix: str,
    connections: int = 2,
) -> tuple[list[Result], float, int]:
    """Every caller asks for ``targets[start:start + count]`` in lockstep.

    A barrier starts each target on every connection together, so one
    request fits and the others coalesce onto it.  Returns (results,
    wall seconds, connects).
    """
    results: list[Result] = []
    lock = threading.Lock()
    clients = [HTTPClient(host, port) for _ in range(connections)]
    indices = range(start, start + count)
    barrier = threading.Barrier(connections)
    begin = time.perf_counter()

    def caller(client: HTTPClient) -> None:
        seat = clients.index(client)
        for index in indices:
            request = make_request(targets[index])
            result = send(client, request, index, f"{prefix}{index}.{seat}")
            with lock:
                results.append(result)
            barrier.wait(timeout=150)

    _run_callers(caller, clients)
    wall = time.perf_counter() - begin
    return results, wall, sum(c.connects for c in clients)


def _run_callers(caller, clients: list[HTTPClient]) -> None:
    threads = [threading.Thread(target=caller, args=(c,)) for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for client in clients:
        client.close()
