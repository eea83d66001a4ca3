"""The benchmark's one command.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``

1. Prepares, untimed and only when the sources changed, the zoos, warm
   registries and references (:mod:`perfbench.prepare`).
2. ``--trace 0``: launches the server process three times and reports
   the median set-up time; the last launch serves the timed phase, a
   closed loop over two connections, then an untimed quality probe asks
   for the full ranking of every target.  Prints the end-to-end metrics.
3. ``--trace 1``: one launch with traced set-up; the timed phase runs
   half with the span wrappers installed and half without them.  Prints
   the per-layer metrics and the tracing overhead (traced over untraced
   latency p50).
4. Checks every answer and the server's counters (:mod:`perfbench.checks`);
   prints ``"correct": false`` and exits 1 if any check fails.

The last line of stdout is the JSON result; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import prepare  # noqa: E402
from perfbench.checks import check_answer, mean_pearson  # noqa: E402
from perfbench.client import HTTPClient, run_cold, run_warm, send  # noqa: E402
from perfbench.tracing import self_times  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    COLD_TARGETS,
    CONNECTIONS,
    EMBEDDING_DIM,
    MAX_WARM_SECONDS,
    MIN_WARM_REQUESTS,
    MODALITIES,
    SETUP_LAUNCHES,
    WORKLOADS,
    cold_sequence,
    rank_request,
    warm_requests,
)

#: a launch that is not READY by then is killed (runs must end in 180 s)
READY_TIMEOUT_S = 120.0


class BenchError(Exception):
    """The benchmark could not run (not a failed correctness check)."""


class Server:
    """One server process; ``setup_s`` is launch until READY.

    The process's stderr goes to ``log``, a file in the run's scratch
    directory, quoted when the server fails.
    """

    def __init__(self, config: dict, log: Path):
        self.log = open(log, "w+")
        began = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "server.py"), json.dumps(config)],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
        )
        watchdog = threading.Timer(READY_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        self.setup_s = time.perf_counter() - began
        if not line.startswith("READY "):
            self.stop()
            raise BenchError(f"server did not start:\n{self.log_tail()}")
        self.info = json.loads(line[len("READY ") :])
        self.port = self.info["port"]

    def log_tail(self) -> str:
        self.log.seek(0)
        return self.log.read()[-4000:]

    def command(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().strip()
        if reply != f"OK {command}":
            raise BenchError(f"server answered {reply!r} to {command!r}")

    def get(self, path: str) -> dict:
        client = HTTPClient("127.0.0.1", self.port)
        try:
            status, _, body = client.fetch("GET", path)
        finally:
            client.close()
        if status != 200:
            raise BenchError(f"GET {path} answered {status}")
        return json.loads(body)

    def cpu_s(self) -> float:
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class Run:
    """One workload's inputs, references, answer checks and counts."""

    def __init__(self, workload, seed: int, seconds: float, prepared):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.prepared = prepared
        self.reference = prepared.reference()["modalities"]
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.scratch = Path(tempfile.mkdtemp(prefix="run-", dir=prepare.STATE))
        # namespace -> modality: timed traffic, and the quality probe.  A
        # cold server serves only its cold image namespace; its probe asks
        # namespaces over the prepared registry, which revive lazily.
        if workload.cold:
            self.served = {"image": "image"}
            self.probed = {f"ref-{m}": m for m in MODALITIES}
        else:
            self.served = self.probed = {m: m for m in MODALITIES}
        self.expected = {
            ns: self.reference[m]["strategies"][workload.strategy]["targets"]
            for ns, m in {**self.served, **self.probed}.items()
        }

    def config(self, *, trace: bool) -> dict:
        def namespace(name, modality, registry, preload):
            return {
                "name": name,
                "modality": modality,
                "strategy": self.workload.strategy,
                "registry": str(registry),
                "preload": preload,
            }

        if self.workload.cold:
            empty = tempfile.mkdtemp(prefix="cold-", dir=self.scratch)
            namespaces = [namespace("image", "image", empty, False)]
            namespaces += [
                namespace(ns, m, self.prepared.registry(m), False)
                for ns, m in self.probed.items()
            ]
        else:
            namespaces = [
                namespace(m, m, self.prepared.registry(m), True) for m in MODALITIES
            ]
        return {
            "zoo_cache": str(self.prepared.zoo_cache),
            "trace": trace,
            "namespaces": namespaces,
        }

    def phase(
        self,
        server: Server,
        *,
        seconds: float,
        count: int,
        prefix: str,
        cursor: int = 0,
    ):
        """One timed closed-loop phase; returns (pairs, wall, connects, cursor).

        A warm phase lasts ``seconds`` and at least ``count`` requests; a
        cold phase asks for exactly ``count`` targets.  ``pairs`` are
        (request, result); a following phase continues the request
        sequence at ``cursor``.
        """
        spec = self.workload.spec
        if self.workload.cold:
            targets = cold_sequence(self.seed, self.reference["image"]["targets"])
            results, wall, connects = run_cold(
                "127.0.0.1",
                server.port,
                targets,
                lambda target: rank_request("image", target, spec),
                start=cursor,
                count=count,
                prefix=prefix,
                connections=CONNECTIONS,
            )
            cursor += count
            pairs = [
                (rank_request("image", targets[r.index], spec), r) for r in results
            ]
        else:
            requests = warm_requests(
                self.seed,
                {m: self.reference[m]["targets"] for m in self.served},
                {m: self.reference[m]["models"] for m in self.served},
                spec,
            )
            results, wall, connects = run_warm(
                "127.0.0.1",
                server.port,
                requests,
                seconds=seconds,
                min_requests=count,
                max_seconds=MAX_WARM_SECONDS,
                prefix=prefix,
                offset=cursor,
                connections=CONNECTIONS,
            )
            pairs = [(requests[r.index % len(requests)], r) for r in results]
            cursor = max(r.index for r in results) + 1
        self.account(pairs)
        return pairs, wall, connects, cursor

    def account(self, pairs) -> dict:
        """Count and check answers; returns (namespace, target) -> ranking."""
        rankings = {}
        for request, result in pairs:
            self.attempted += 1
            self.failed += result.status != 200
            error, ranking = check_answer(
                result, request, self.expected, self.workload.spec
            )
            if error is not None:
                self.errors.append(f"{result.request_id}: {error}")
            elif ranking is not None:
                rankings[(request.namespace, request.target)] = ranking
        return rankings

    def probe(self, server: Server) -> dict[str, float]:
        """Untimed: full ranking of every target -> Pearson per modality."""
        client = HTTPClient("127.0.0.1", server.port)
        pairs = []
        try:
            for ns, modality in sorted(self.probed.items()):
                for i, target in enumerate(self.reference[modality]["targets"]):
                    request = rank_request(ns, target, self.workload.spec)
                    pairs.append((request, send(client, request, i, f"q-{ns}-{i}")))
        finally:
            client.close()
        rankings = self.account(pairs)
        quality = {}
        for ns, modality in self.probed.items():
            reference = self.reference[modality]
            targets = reference["targets"]
            if any((ns, t) not in rankings for t in targets):
                continue  # a failed answer is already a failed check
            served = mean_pearson(
                {t: rankings[(ns, t)] for t in targets}, reference["truth"], targets
            )
            in_process = reference["strategies"][self.workload.strategy]["pearson"]
            if served != in_process:
                print(
                    f"quality: served {modality} Pearson {served!r} differs from "
                    f"the in-process LOO evaluation {in_process!r}",
                    file=sys.stderr,
                )
            quality[f"pearson_{modality}"] = served
        return quality

    def check_counters(self, before: dict, after: dict, pairs) -> dict:
        """Counter checks over a timed phase; returns the deltas checked."""
        sent = len(pairs)
        if self.workload.cold:
            now, then = after["namespaces"]["image"], before["namespaces"]["image"]
        else:
            now, then = after["fleet"], before["fleet"]
        keys = ("cache_hits", "cache_misses", "fits", "coalesced", "router_requests")
        delta = {k: now[k] - then[k] for k in keys}
        errors = []
        if delta["router_requests"] != sent:
            errors.append(f"router counted {delta['router_requests']} of {sent}")
        if self.workload.cold:
            distinct = len({request.target for request, _ in pairs})
            if delta["fits"] != distinct:
                errors.append(f"{delta['fits']} fits for {distinct} targets")
            if delta["coalesced"] != sent - delta["fits"]:
                errors.append(f"{delta['coalesced']} coalesced of {sent} requests")
        else:
            if after["fleet"]["fits"] != 0:
                errors.append(f"warm server fitted {after['fleet']['fits']}")
            if delta["cache_misses"] != 0 or delta["cache_hits"] == 0:
                errors.append(
                    f"hit ratio below 1: {delta['cache_hits']} hits, "
                    f"{delta['cache_misses']} misses"
                )
        self.errors += [f"counters: {error}" for error in errors]
        return delta

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def _latencies_ms(pairs) -> np.ndarray:
    return np.array([r.latency_s for _, r in pairs]) * 1e3


# ---------------------------------------------------------------------- #
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------- #
def end_to_end(run: Run) -> dict[str, float]:
    setups, revives, slowest_revives = [], [], []
    for launch in range(SETUP_LAUNCHES):
        server = Server(run.config(trace=False), run.scratch / f"server-{launch}.log")
        setups.append(server.setup_s)
        if server.info["revive_s"]:
            revives += server.info["revive_s"]
            slowest_revives.append(max(server.info["revive_s"]))
        if launch < SETUP_LAUNCHES - 1:
            server.stop()
    try:
        before = server.get("/v1/stats")
        count = COLD_TARGETS if run.workload.cold else MIN_WARM_REQUESTS
        pairs, wall, _, _ = run.phase(
            server, seconds=run.seconds, count=count, prefix="t-"
        )
        peak_rss_mb = server.peak_rss_mb()
        run.check_counters(before, server.get("/v1/stats"), pairs)
        quality = run.probe(server)
    finally:
        server.stop()
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        **quality,
    }
    # pooled over the timed phase: a warm p99 has >= 15 samples beyond it
    latencies = _latencies_ms(pairs)
    metrics["warm_qps"] = len(pairs) / wall
    metrics["latency_p50_ms"] = float(np.percentile(latencies, 50))
    metrics["latency_p99_ms"] = float(np.percentile(latencies, 99))
    if run.workload.cold:
        metrics["cold_rank_p50_s"] = metrics["latency_p50_ms"] / 1e3
        metrics["cold_rank_max_s"] = float(latencies.max()) / 1e3
    else:
        # a warm server takes each target cold from the registry in set-up
        metrics["cold_rank_p50_s"] = statistics.median(revives)
        metrics["cold_rank_max_s"] = statistics.median(slowest_revives)
    return metrics


# ---------------------------------------------------------------------- #
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------- #
def per_layer(run: Run) -> dict[str, float]:
    cold = run.workload.cold
    config = run.config(trace=True)
    dump = run.scratch / "trace.json"
    # Set-up is traced.  Cold: the traced half fits two targets (the first
    # pays the catalog fill), then the untraced half one.  Warm: half the
    # requests untraced, then half traced, so the spans a traced half
    # accumulates weigh on that half only.
    half = MIN_WARM_REQUESTS // 2
    halves = [("traced", 2), ("untraced", 1)]
    if not cold:
        halves = [("untraced", half), ("traced", half)]
    arms, cursor, connects = {}, 0, 0
    server = Server(config, run.scratch / "server.log")
    try:
        before = server.get("/v1/stats")
        cpu_before = server.cpu_s()
        for label, count in halves:
            server.command("trace on" if label == "traced" else "trace off")
            arms[label], _, opened, cursor = run.phase(
                server,
                seconds=run.seconds / 2,
                count=count,
                prefix=f"{label}-",
                cursor=cursor,
            )
            connects += opened
        cpu_ms = (server.cpu_s() - cpu_before) * 1e3
        traced, untraced = arms["traced"], arms["untraced"]
        delta = run.check_counters(before, server.get("/v1/stats"), traced + untraced)
        server.command(f"dump {dump}")
    finally:
        server.stop()
    trace = json.loads(dump.read_text())
    sent = len(traced) + len(untraced)
    hits, lookups = delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"]
    traced_ms, untraced_ms = _latencies_ms(traced), _latencies_ms(untraced)
    if cold:  # compare fits like with like: drop the catalog-filling target
        first = min(r.index for _, r in traced)
        traced_ms = np.array([r.latency_s * 1e3 for _, r in traced if r.index != first])
        registries = [Path(config["namespaces"][0]["registry"])]
    else:
        registries = [run.prepared.registry(m) for m in MODALITIES]
    if not (len(traced_ms) and len(untraced_ms)):
        raise BenchError("a traced or untraced half has no requests to compare")
    members, sizes = _artifact_sizes(registries, run.workload.spec)
    return {
        **_span_metrics(trace["spans"], {r.request_id: r for _, r in traced}, cold),
        "client.connects_per_request": connects / sent,
        "artifacts.members_per_artifact": _p50(members),
        "artifacts.bytes_per_artifact": _p50(sizes),
        "zoo.load_ms": server.info["zoo_load_ms"],
        "router.coalesced_ratio": delta["coalesced"] / sent,
        "router.queue_wait_ms_p50": _p50(trace["queue_wait_ms"]),
        "service.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "service.fits": float(delta["fits"]),
        "server.cpu_ms_per_request": cpu_ms / sent,
        "trace.overhead_pct": (_p50(traced_ms) / _p50(untraced_ms) - 1.0) * 100,
    }


def _p50(values) -> float:
    """Median; 0 for a layer the workload never entered."""
    return float(np.median(values)) if len(values) else 0.0


def _span_metrics(spans, traced: dict, cold: bool) -> dict[str, float]:
    """Per-layer numbers from the server's spans.

    ``traced`` maps the traced half's request ids to client results;
    request-scoped layers count only those requests.
    """
    own = self_times(spans)
    parents = {s[3]: s[4] for s in spans}
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)

    def ms(name, keep=lambda span: True, scale=1e3):
        return [(s[2] - s[1]) * scale for s in by_name.get(name, ()) if keep(s)]

    def root(span_id):
        while parents.get(span_id):
            span_id = parents[span_id]
        return span_id

    def in_request(span):
        return span[5] in traced

    handles = [s for s in by_name.get("gateway.handle", ()) if in_request(s)]
    # a coalesced waiter's own time is its wait (router.queue_wait_ms_p50):
    # on cold-xgb, router overhead counts only the requests that fitted
    fitted = {root(s[3]) for s in by_name.get("predictors.fit", ())}
    routed = [s for s in handles if not cold or s[3] in fitted]
    handled: dict[str, float] = {}
    for s in handles:
        handled[s[5]] = handled.get(s[5], 0.0) + (s[2] - s[1]) * 1e3
    predicts = [s for s in by_name.get("predictors.predict", ()) if in_request(s)]
    builds = sorted(by_name.get("graph.build", ()), key=lambda s: s[1])
    requests = ("rank", "score_batch")
    responses = ("rank_response", "score_batch_response")
    return {
        "http.self_ms_p50": _p50(
            [traced[rid].latency_s * 1e3 - t for rid, t in handled.items()]
        ),
        "router.overhead_ms_p50": _p50([own[s[3]] * 1e3 for s in routed]),
        "features.assemble_ms_p50": _p50(
            ms("features.assemble", lambda s: in_request(s) and not s[6])
        ),
        "protocol.decode_us_p50": _p50(
            ms("protocol.decode", lambda s: s[6] in requests, scale=1e6)
        ),
        "protocol.encode_us_p50": _p50(
            ms("protocol.encode", lambda s: s[6] in responses, scale=1e6)
        ),
        "predictors.predict_ms_p50": _p50([(s[2] - s[1]) * 1e3 for s in predicts]),
        "predictors.predict_rows": _p50([s[6] for s in predicts]),
        "registry.load_ms_p50": _p50(ms("registry.load")),
        "graph.build_ms": (builds[0][2] - builds[0][1]) * 1e3 if builds else 0.0,
        "graph.walks_ms": _p50(ms("graph.walks")),
        "graph.sgns_ms": _p50(ms("graph.sgns")),
        "features.assemble_fit_ms": _p50(ms("features.assemble", lambda s: s[6])),
        "predictors.fit_ms": _p50(ms("predictors.fit")),
        "registry.save_ms": _p50(ms("registry.save")),
    }


def _artifact_sizes(registries, spec: str) -> tuple[list[int], list[int]]:
    """(npz members, bytes) of every artifact of ``spec`` in ``registries``."""
    from repro.strategies import get_strategy

    fingerprint = get_strategy(spec, embedding_dim=EMBEDDING_DIM).fingerprint()
    members, sizes = [], []
    found = (r.rglob(f"{fingerprint}/*/arrays.npz") for r in registries)
    for arrays in sorted(path for paths in found for path in paths):
        with zipfile.ZipFile(arrays) as npz:
            members.append(len(npz.namelist()))
        sizes.append(sum(p.stat().st_size for p in arrays.parent.iterdir()))
    return members, sizes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = benchmark["per_layer" if args.trace else "end_to_end"]

    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, prepare.ensure())
    try:
        values = per_layer(run) if args.trace else end_to_end(run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    for error in run.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing and not run.errors:  # only a failed answer may leave a gap
        raise RuntimeError(f"metrics {missing} were not measured")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
        if m["name"] in values
    }
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
