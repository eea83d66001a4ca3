"""Untimed, idempotent preparation of the benchmark's inputs.

:func:`ensure` makes sure that a directory under ``.bench_build/perfbench/``
in the checkout, named by a hash of the sources, holds:

- both default zoos (image and text, seed 0), built and cached;
- a registry with an artifact for every target under both served
  strategies, fitted into an empty registry by the code under test (so
  a change to fitting or to the artifact format is always fitted here,
  never revived from an older tree, and never during a timed run);
- ``reference.json``: per strategy and target, the ranking digest and
  scores of the artifacts as a fresh in-process service revives them,
  the ground truth, and the in-process LOO Pearson
  (:func:`repro.core.evaluate_strategy` over the freshly fitted
  pipelines, before any pack/unpack).

A later run with the same sources reuses the directory; preparing a new
one removes those of other sources.  The two modalities are prepared in
parallel child processes (``python perfbench/prepare.py MODALITY DIR``).
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".bench_build" / "perfbench"
#: the benchmark files whose content shapes the prepared data
OWN_SOURCES = ("prepare.py", "workloads.py", "checks.py")


@dataclass(frozen=True)
class Prepared:
    """One source tree's prepared inputs."""

    root: Path

    @property
    def zoo_cache(self) -> Path:
        return self.root / "zoo"

    def registry(self, modality: str) -> Path:
        return self.root / "registry" / modality

    def reference(self) -> dict:
        return json.loads((self.root / "reference.json").read_text())


def source_stamp() -> str:
    """Hash of the package sources and the benchmark's own definitions."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py"))
    files += [ROOT / "perfbench" / name for name in OWN_SOURCES]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def ensure() -> Prepared:
    """The prepared inputs of this source tree, preparing them if absent."""
    from perfbench.workloads import MODALITIES

    STATE.mkdir(parents=True, exist_ok=True)
    prepared = Prepared(STATE / f"src-{source_stamp()[:20]}")
    with open(STATE / "prepare.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if (prepared.root / "reference.json").exists():
            return prepared
        for old in STATE.glob("src-*"):
            shutil.rmtree(old)
        prepared.root.mkdir()
        children = [
            subprocess.Popen(
                [sys.executable, __file__, modality, str(prepared.root)],
                cwd=ROOT,
                stdout=sys.stderr,
            )
            for modality in MODALITIES
        ]
        codes = [child.wait() for child in children]
        if any(codes):
            raise RuntimeError(f"prepare failed with exit codes {codes}")
        reference = {"modalities": {}}
        for modality in MODALITIES:
            part = prepared.root / f"reference-{modality}.json"
            reference["modalities"][modality] = json.loads(part.read_text())
        partial = prepared.root / "reference.tmp"
        partial.write_text(json.dumps(reference))
        partial.replace(prepared.root / "reference.json")
        return prepared


class _ServedScores:
    """A warm service as an ``evaluate_strategy`` strategy."""

    def __init__(self, service):
        self.service = service
        self.name = service.strategy.spec

    def scores_for_target(self, zoo, target):
        return dict(self.service.rank(target))


def prepare_modality(modality: str, prepared: Prepared) -> None:
    """Build the zoo, fit every artifact, write the references."""
    from perfbench.checks import ranking_digest
    from perfbench.workloads import EMBEDDING_DIM, SPECS
    from repro.core import evaluate_strategy
    from repro.serving import ArtifactRegistry, SelectionService
    from repro.strategies import get_strategy
    from repro.zoo import ZooConfig, get_or_build_zoo, load_zoo

    config = ZooConfig.default(modality=modality, seed=0)
    registry = ArtifactRegistry(prepared.registry(modality))
    strategies = {
        key: get_strategy(spec, embedding_dim=EMBEDDING_DIM)
        for key, spec in SPECS.items()
    }
    zoo = get_or_build_zoo(config, cache_dir=prepared.zoo_cache)
    pearson = {}
    for key, strategy in strategies.items():
        service = SelectionService(zoo, strategy, registry=registry)
        service.warmup()
        fits = service.stats()["fits"]
        if fits != len(zoo.target_names()):
            raise RuntimeError(
                f"{modality}/{key}: {fits:.0f} fits into an empty registry"
            )
        print(f"prepare {modality}/{key}: {fits:.0f} fitted", file=sys.stderr)
        evaluation = evaluate_strategy(_ServedScores(service), zoo)
        pearson[key] = evaluation.average_correlation()

    # A fresh load sees the catalog exactly as a server process does, and
    # a fresh service revives the artifacts exactly as the server does.
    zoo = load_zoo(config, cache_dir=prepared.zoo_cache)
    targets = zoo.target_names()
    out = {"targets": targets, "models": zoo.model_ids(), "truth": {}}
    for target in targets:
        ids, accuracies = zoo.ground_truth(target)
        out["truth"][target] = [[m, float(a)] for m, a in zip(ids, accuracies)]
    out["strategies"] = {}
    for key, strategy in strategies.items():
        service = SelectionService(zoo, strategy, registry=registry)
        service.warmup()
        if service.stats()["fits"]:
            raise RuntimeError(f"{modality}/{key}: artifacts do not revive")
        per_target = {}
        for target in targets:
            ranking = service.rank(target)
            per_target[target] = {
                "digest": ranking_digest(ranking),
                "scores": {m: float(s) for m, s in ranking},
            }
        out["strategies"][key] = {"targets": per_target, "pearson": pearson[key]}
    (prepared.root / f"reference-{modality}.json").write_text(json.dumps(out))


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    prepare_modality(sys.argv[1], Prepared(Path(sys.argv[2])))
