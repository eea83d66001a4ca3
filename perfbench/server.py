"""The benchmark's server process: a gateway behind its HTTP front door.

Run as ``python perfbench/server.py CONFIG_JSON``.  The config names the
zoo cache and, per namespace, its modality, strategy, registry directory
and whether set-up revives every target before serving.  The process
builds the gateway through the public ``SelectionGateway`` and
``GatewayHTTPServer`` API with ``fit_executor="thread"``, binds an
ephemeral loopback port and prints one line::

    READY {"port": ..., "zoo_load_ms": ..., "revive_s": [...]}

It then reads commands on stdin, answering each with ``OK <command>``:

- ``trace on`` / ``trace off`` install or remove the span wrappers of
  :mod:`perfbench.tracing` (``"trace": true`` installs them before the
  zoos load, so set-up is traced too);
- ``dump PATH`` writes the spans and each router's queue waits to PATH;
- ``quit`` (or end of input) stops serving and exits.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import EMBEDDING_DIM, SPECS  # noqa: E402


def _load_zoos(modalities, cache_dir) -> dict:
    from repro.zoo import ZooConfig, load_zoo

    zoos = {}
    for modality in modalities:
        zoo = load_zoo(ZooConfig.default(modality=modality, seed=0), cache_dir)
        if zoo is None:
            raise SystemExit(f"no prepared {modality} zoo under {cache_dir}")
        zoos[modality] = zoo
    return zoos


async def _serve(config: dict, tracer: Tracer | None) -> None:
    from repro.serving import ArtifactRegistry, GatewayHTTPServer, SelectionGateway
    from repro.strategies import get_strategy

    namespaces = config["namespaces"]
    started = time.perf_counter()
    modalities = sorted({ns["modality"] for ns in namespaces})
    zoos = _load_zoos(modalities, config["zoo_cache"])
    zoo_load_ms = (time.perf_counter() - started) * 1e3

    gateway = SelectionGateway()
    for ns in namespaces:
        gateway.add_namespace(
            ns["name"],
            zoos[ns["modality"]],
            get_strategy(SPECS[ns["strategy"]], embedding_dim=EMBEDDING_DIM),
            registry=ArtifactRegistry(ns["registry"]),
            fit_executor="thread",
        )
    revive_s = []
    for ns in namespaces:
        if ns["preload"]:
            router = gateway.router(ns["name"])
            for target in sorted(router.service.zoo.target_names()):
                began = time.perf_counter()
                await router.warmup([target])
                revive_s.append(time.perf_counter() - began)

    server = GatewayHTTPServer(gateway, "127.0.0.1", 0)
    _, port = await server.start()
    loop = asyncio.get_running_loop()
    done = asyncio.Event()

    def control() -> None:
        for line in sys.stdin:
            command = line.strip()
            if command == "quit":
                break
            if tracer is not None and command == "trace on":
                tracer.install()
            elif tracer is not None and command == "trace off":
                tracer.uninstall()
            elif tracer is not None and command.startswith("dump "):
                _dump(command[5:], tracer, gateway)
            else:
                print(f"ERR {command}", flush=True)
                continue
            print(f"OK {command}", flush=True)
        loop.call_soon_threadsafe(done.set)

    threading.Thread(target=control, daemon=True).start()
    ready = {"port": port, "zoo_load_ms": zoo_load_ms, "revive_s": revive_s}
    print("READY " + json.dumps(ready), flush=True)
    try:
        await done.wait()
    finally:
        await server.close()
        gateway.close()
    print("OK quit", flush=True)


def _dump(path: str, tracer: Tracer, gateway) -> None:
    waits = []
    for name in gateway.namespaces():
        for spec in gateway.strategies(name):
            waits.extend(gateway.router(name, spec).router_stats().queue_wait_ms)
    with open(path, "w") as fh:
        json.dump({"spans": tracer.spans, "queue_wait_ms": waits}, fh)


def main() -> None:
    config = json.loads(sys.argv[1])
    tracer = None
    if config.get("trace"):
        tracer = Tracer()
        tracer.install()
    asyncio.run(_serve(config, tracer))


if __name__ == "__main__":
    main()
