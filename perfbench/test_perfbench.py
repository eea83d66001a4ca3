"""Tests of the benchmark's own parts: client, traffic, tracing, quality.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading

import pytest

from perfbench.checks import check_answer, mean_pearson, ranking_digest
from perfbench.client import HTTPClient, Result, run_cold, run_warm, send
from perfbench.tracing import Tracer, self_times
from perfbench.workloads import (
    EMBEDDING_DIM,
    SPECS,
    cold_sequence,
    rank_request,
    warm_requests,
)


# ---------------------------------------------------------------------- #
# HTTP client against a stub server
# ---------------------------------------------------------------------- #
class StubServer:
    """Answers every request with its path; ``mode`` picks the framing.

    - ``keep-alive``: Content-Length, connection left open;
    - ``close``: Content-Length plus ``Connection: close``, then closes;
    - ``chunked``: chunked transfer coding, connection left open;
    - ``eof``: no Content-Length, the body ends when the server closes;
    - ``silent-close``: Content-Length, no header, but closes anyway.
    """

    def __init__(self, mode: str):
        self.mode = mode
        self.accepted = 0
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            self.accepted += 1
            threading.Thread(target=self._handle, args=(conn,), daemon=True).start()

    def _handle(self, conn: socket.socket) -> None:
        reader = conn.makefile("rb")
        with conn, reader:
            while line := reader.readline():
                path = line.split()[1]
                length = 0
                while (header := reader.readline()) not in (b"\r\n", b""):
                    name, _, value = header.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                reader.read(length)
                body = b'{"path": "' + path + b'"}'
                head = [b"HTTP/1.1 200 OK", b"Content-Type: application/json"]
                if self.mode == "chunked":
                    head.append(b"Transfer-Encoding: chunked")
                    body = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
                elif self.mode != "eof":
                    head.append(b"Content-Length: %d" % len(body))
                if self.mode == "close":
                    head.append(b"Connection: close")
                conn.sendall(b"\r\n".join(head) + b"\r\n\r\n" + body)
                if self.mode not in ("keep-alive", "chunked"):
                    return

    def close(self) -> None:
        self.sock.close()


@pytest.mark.parametrize(
    "mode, connects",
    [("keep-alive", 1), ("chunked", 1), ("close", 5), ("eof", 5), ("silent-close", 5)],
)
def test_client_reuses_connection_only_when_allowed(mode, connects):
    server = StubServer(mode)
    client = HTTPClient("127.0.0.1", server.port, timeout_s=10)
    try:
        for i in range(5):
            status, _, body = client.fetch("POST", f"/p{i}", b"{}")
            assert status == 200
            assert json.loads(body) == {"path": f"/p{i}"}
    finally:
        client.close()
        server.close()
    assert client.connects == connects
    assert server.accepted == connects


def test_cold_callers_ask_for_each_target_together():
    server = StubServer("keep-alive")
    try:
        results, _, connects = run_cold(
            "127.0.0.1",
            server.port,
            ["a", "b", "c", "d"],
            lambda target: rank_request("image", target, SPECS["xgb"]),
            start=1,
            count=2,
            prefix="t-",
        )
    finally:
        server.close()
    assert sorted(r.index for r in results) == [1, 1, 2, 2]
    assert connects == 2
    assert all(r.status == 200 for r in results)


def test_warm_callers_stop_at_their_bounds():
    server = StubServer("keep-alive")
    requests = [rank_request("image", t, SPECS["lr"]) for t in ("a", "b", "c")]
    try:
        results, _, connects = run_warm(
            "127.0.0.1",
            server.port,
            requests,
            seconds=0.0,
            min_requests=20,
            max_seconds=60.0,
            prefix="w-",
        )
        capped, wall, _ = run_warm(
            "127.0.0.1",
            server.port,
            requests,
            seconds=0.0,
            min_requests=10**9,
            max_seconds=0.2,
            prefix="c-",
        )
    finally:
        server.close()
    assert 20 <= len(results) <= 21 and connects == 2
    assert sorted(r.index for r in results) == list(range(len(results)))
    assert capped and 0.2 <= wall < 10


def test_transport_failure_is_a_failed_result():
    with socket.create_server(("127.0.0.1", 0)) as sock:
        port = sock.getsockname()[1]
    client = HTTPClient("127.0.0.1", port, timeout_s=5)
    result = send(client, rank_request("image", "t", SPECS["lr"]), 0, "t-0")
    assert result.status == 0 and result.body == b""


# ---------------------------------------------------------------------- #
# traffic and checks
# ---------------------------------------------------------------------- #
def test_traffic_is_a_function_of_the_seed():
    targets = {"image": ["a", "b", "c"], "text": ["d", "e"]}
    models = {ns: [f"m{i}" for i in range(10)] for ns in targets}
    first = warm_requests(3, targets, models, SPECS["lr"], count=2000)
    assert first == warm_requests(3, targets, models, SPECS["lr"], count=2000)
    assert first != warm_requests(4, targets, models, SPECS["lr"], count=2000)
    ranks = sum(r.path == "/v1/rank" for r in first) / len(first)
    assert 0.72 < ranks < 0.78
    assert all(len(set(r.models)) == 8 for r in first if r.models)
    assert cold_sequence(3, list("hgfedcba")) == cold_sequence(3, list("abcdefgh"))
    orders = {tuple(cold_sequence(seed, list("abcdefgh"))) for seed in range(20)}
    assert orders == {("a", "b", "c"), ("a", "c", "b")}


def test_check_answer_flags_a_changed_score():
    spec = SPECS["lr"]
    ranking = [["m1", 0.5], ["m2", 0.25]]
    reference = {"digest": ranking_digest(ranking), "scores": {"m1": 0.5, "m2": 0.25}}
    expected = {"image": {"t": reference}}
    request = rank_request("image", "t", spec)
    body = {
        "kind": "rank_response",
        "namespace": "image",
        "target": "t",
        "strategy": spec,
        "ranking": ranking,
    }

    def check(payload, status=200):
        result = Result(0, "r", status, 0.0, 1.0, json.dumps(payload).encode())
        return check_answer(result, request, expected, spec)

    assert check(body) == (None, ranking)
    changed = dict(body, ranking=[["m1", 0.5], ["m2", 0.2500001]])
    assert "differs" in check(changed)[0]
    assert "status 500" in check(body, status=500)[0]


# ---------------------------------------------------------------------- #
# tracing
# ---------------------------------------------------------------------- #
def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        ("parent", 0.0, 10.0, 1, 0, "r", None),
        ("a", 1.0, 4.0, 2, 1, "r", None),
        ("b", 3.0, 6.0, 3, 1, "r", None),  # overlaps a
        ("c", 8.0, 12.0, 4, 1, "r", None),  # runs past the parent
        ("d", 2.0, 3.0, 5, 2, "r", None),  # grandchild
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[2] == pytest.approx(2.0)
    assert own[5] == pytest.approx(1.0)


def test_tracer_records_outermost_calls_and_uninstalls():
    import numpy as np

    from repro.predictors import GradientBoostingRegressor, LinearRegression
    from repro.serving.protocol import RankRequest

    classes = (GradientBoostingRegressor, LinearRegression, RankRequest)
    originals = {cls: dict(vars(cls)) for cls in classes}
    tracer = Tracer()
    tracer.install()
    try:
        x = np.random.default_rng(0).normal(size=(40, 3))
        model = GradientBoostingRegressor(n_estimators=5).fit(x, x[:, 0])
        model.predict(x[:7])
        request = RankRequest.from_json(RankRequest(target="t").to_json())
    finally:
        tracer.uninstall()
    assert request == RankRequest(target="t")
    assert [(s[0], s[6]) for s in tracer.spans] == [
        ("predictors.fit", 40),
        ("predictors.predict", 7),
        ("protocol.encode", "rank"),
        ("protocol.decode", "rank"),
    ]
    for cls, attributes in originals.items():
        assert dict(vars(cls)) == attributes


# ---------------------------------------------------------------------- #
# served quality equals the in-process LOO evaluation
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def tiny_zoo():
    from repro.zoo import ZooConfig, build_zoo

    return build_zoo(ZooConfig.tiny(modality="image", seed=7))


def test_served_pearson_equals_evaluate_strategy(tiny_zoo):
    from repro.core import evaluate_strategy
    from repro.serving import GatewayHTTPServer, SelectionGateway
    from repro.strategies import get_strategy

    spec = SPECS["lr"]
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    gateway = SelectionGateway()
    strategy = get_strategy(spec, embedding_dim=EMBEDDING_DIM)
    gateway.add_namespace("image", tiny_zoo, strategy, fit_executor="thread")
    server = GatewayHTTPServer(gateway, "127.0.0.1", 0)
    _, port = asyncio.run_coroutine_threadsafe(server.start(), loop).result(30)
    client = HTTPClient("127.0.0.1", port)
    targets = tiny_zoo.target_names()
    rankings = {}
    try:
        for i, target in enumerate(targets):
            result = send(client, rank_request("image", target, spec), i, f"q{i}")
            assert result.status == 200
            rankings[target] = json.loads(result.body)["ranking"]
    finally:
        client.close()
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(30)
        gateway.close()
        loop.call_soon_threadsafe(loop.stop)
        thread.join(30)
        loop.close()
    truth = {}
    for target in targets:
        ids, accuracies = tiny_zoo.ground_truth(target)
        truth[target] = [[m, float(a)] for m, a in zip(ids, accuracies)]
    served = mean_pearson(rankings, truth, targets)
    fresh = get_strategy(spec, embedding_dim=EMBEDDING_DIM)
    assert served == evaluate_strategy(fresh, tiny_zoo).average_correlation()
