"""Stable fingerprints that guard the artifact registry against staleness.

Two fingerprints gate every artifact load:

- **config fingerprint** — a content hash of the full
  :class:`~repro.core.TransferGraphConfig` (graph heuristics, learner,
  feature set, predictor, seed).  Artifacts fitted under a different
  configuration live in a different registry namespace and can never be
  served for a query with this one.
- **catalog fingerprint** — a content hash of the zoo's *ground-truth*
  tables (models, datasets, fine-tuning history).  Similarity and
  transferability tables are deliberately excluded: they are derived
  caches recomputed deterministically from the ground truth, and they
  grow lazily (scores are recorded on first use), so hashing them would
  invalidate artifacts that are in fact still correct.

Like :mod:`repro.strategies.artifacts`, this lives in the strategies
layer: fingerprints are part of every strategy's contract
(:meth:`~repro.strategies.SelectionStrategy.fingerprint`), and the
serving registry above consumes them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from repro.core.config import FeatureSet, TransferGraphConfig
from repro.graph import GraphConfig

__all__ = ["config_fingerprint", "catalog_fingerprint", "config_from_dict",
           "stable_digest", "CATALOG_FINGERPRINT_TABLES"]

#: the ground-truth tables whose content invalidates fitted artifacts
CATALOG_FINGERPRINT_TABLES = ("models", "datasets", "history")


def stable_digest(payload) -> str:
    """THE digest rule keying registry directories (strategy, config,
    and catalog fingerprints all share it — see also
    :meth:`repro.strategies.ScoreTableStrategy.fingerprint`)."""
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.blake2b(blob, digest_size=10).hexdigest()


_digest = stable_digest


def config_fingerprint(config: TransferGraphConfig) -> str:
    """Content hash of a TG configuration (registry namespace key)."""
    return _digest(asdict(config))


def catalog_fingerprint(catalog) -> str:
    """Content hash of the catalog's ground-truth tables."""
    payload = {name: getattr(catalog, name).to_records()
               for name in CATALOG_FINGERPRINT_TABLES}
    return _digest(payload)


def config_from_dict(payload: dict) -> TransferGraphConfig:
    """Rebuild a :class:`TransferGraphConfig` from its ``asdict`` form."""
    payload = dict(payload)
    payload["graph"] = GraphConfig(**payload["graph"])
    payload["features"] = FeatureSet(**payload["features"])
    return TransferGraphConfig(**payload)
