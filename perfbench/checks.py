"""Correctness checks and the selection-quality measure.

Every served answer is compared with a reference computed in-process by
:mod:`perfbench.prepare` under the same strategy and zoo:

- a ``/v1/rank`` answer must carry the reference ranking, compared by
  the digest of its ``[[model, score], ...]`` list, so rankings agree
  across runs and between the cold and warm xgb workloads;
- a ``/v1/score_batch`` answer must carry, for each pair, exactly the
  score the reference ranking gives that model.

Quality is the mean over a modality's targets of the Pearson
correlation between served scores and the fine-tuning ground truth,
computed as :func:`repro.core.evaluate_strategy` computes it.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def ranking_digest(ranking) -> str:
    pairs = [[model, float(score)] for model, score in ranking]
    text = json.dumps(pairs, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_answer(
    result, request, expected: dict, spec: str
) -> tuple[str | None, list | None]:
    """(error or None, ranking of a rank answer) for one served request.

    ``expected[namespace][target]`` holds the reference ``digest`` and
    per-model ``scores``.
    """
    if result.status != 200:
        return f"status {result.status}", None
    try:
        answer = json.loads(result.body)
    except ValueError:
        return "body is not JSON", None
    reference = expected[request.namespace][request.target]
    echo = (answer.get("namespace"), answer.get("strategy"))
    if echo != (request.namespace, spec):
        return f"answer echoes {echo}", None
    if request.path == "/v1/rank":
        kind = (answer.get("kind"), answer.get("target"))
        if kind != ("rank_response", request.target):
            return f"not a rank_response for {request.target}", None
        if ranking_digest(answer["ranking"]) != reference["digest"]:
            return f"ranking of {request.target} differs from the reference", None
        return None, answer["ranking"]
    if answer.get("kind") != "score_batch_response":
        return "not a score_batch_response", None
    if answer.get("pairs") != [[m, request.target] for m in request.models]:
        return "pairs differ from the request", None
    if answer.get("scores") != [reference["scores"][m] for m in request.models]:
        return "scores differ from the reference ranking", None
    return None, None


def mean_pearson(
    rankings: dict[str, list], truth: dict[str, list], targets: list[str]
) -> float:
    """Mean per-target Pearson of served scores against ground truth.

    ``truth[target]`` lists ``[model, accuracy]`` in the zoo's model
    order; targets are averaged in the zoo's target order, as
    ``evaluate_strategy`` averages them.
    """
    from repro.utils import pearson_correlation

    correlations = []
    for target in targets:
        scores = {m: float(s) for m, s in rankings[target]}
        truth_vec = np.array([acc for _, acc in truth[target]])
        score_vec = np.array([scores[m] for m, _ in truth[target]])
        correlations.append(pearson_correlation(truth_vec, score_vec))
    return float(np.mean(correlations))
