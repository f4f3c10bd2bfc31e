"""Output checks computed apart from the program.

Every check is a pure function that returns a list of failure messages
(empty when the check passes).  None of them compares against a stored
copy of earlier output: each recomputes the property from the program's
inputs and outputs with its own arithmetic (rank-sum AUC, bincounts,
set membership), or tests a property the method must have.
"""

from __future__ import annotations

import math

import numpy as np


def rank_sum_auc(scores, labels) -> float:
    """ROC AUC by the Mann-Whitney rank sum, ties given their mean rank."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    positive = np.asarray(labels).ravel() > 0.5
    num_pos = int(np.count_nonzero(positive))
    num_neg = scores.size - num_pos
    if num_pos == 0 or num_neg == 0:
        raise ValueError("AUC needs both classes")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    # Mean rank of each distinct score: ranks of a tie group are
    # (first + last) / 2, with 1-based ranks.
    last = np.cumsum(counts)
    mean_rank = last - (counts - 1) / 2.0
    rank_sum = float(mean_rank[inverse][positive].sum())
    return (rank_sum - num_pos * (num_pos + 1) / 2.0) / (num_pos * num_neg)


def auc_slack(auc: float, labels) -> float:
    """Three Hanley-McNeil standard errors of an AUC on these labels."""
    positive = np.asarray(labels).ravel() > 0.5
    n_pos = int(np.count_nonzero(positive))
    n_neg = positive.size - n_pos
    q1 = auc / (2.0 - auc)
    q2 = 2.0 * auc * auc / (1.0 + auc)
    variance = (
        auc * (1 - auc) + (n_pos - 1) * (q1 - auc * auc) + (n_neg - 1) * (q2 - auc * auc)
    ) / (n_pos * n_neg)
    return 3.0 * math.sqrt(max(variance, 0.0))


def check_auc(auc: float, oracle_auc: float, labels, margin: float = 0.05) -> list[str]:
    """The model learned (AUC above chance by ``margin``) yet does not
    beat the planted-logit oracle on the same rows beyond sampling slack."""
    errors = []
    if not auc > 0.5 + margin:
        errors.append(f"AUC {auc:.4f} is not above 0.5 + {margin}")
    slack = auc_slack(oracle_auc, labels)
    if auc > oracle_auc + slack:
        errors.append(
            f"AUC {auc:.4f} exceeds the planted-logit oracle {oracle_auc:.4f} "
            f"by more than the sampling slack {slack:.4f}"
        )
    return errors


def check_accuracy(reported: float, logits, labels, near_zero: float = 1e-4) -> list[str]:
    """The accuracy the program reports equals a recount of the hard
    predictions (logit >= 0, i.e. probability >= 0.5) on the same rows.

    Only rows whose logit lies within ``near_zero`` of the threshold may
    count differently, since forwards in other batch sizes round apart.
    """
    logits = np.asarray(logits, dtype=np.float64).ravel()
    positive = np.asarray(labels).ravel() > 0.5
    correct = int(np.count_nonzero((logits >= 0) == positive))
    ambiguous = int(np.count_nonzero(np.abs(logits) < near_zero))
    if abs(reported * logits.size - correct) <= ambiguous + 0.5:
        return []
    return [
        f"reported accuracy {reported:.6f} differs from the recount "
        f"{correct / logits.size:.6f} over {logits.size} rows"
    ]


def check_exactly_once(hot_batches, cold_batches, num_inputs: int, batch_size: int) -> list[str]:
    """Every input is packed exactly once across both pools.

    Only a trimmed tail shorter than one batch per pool may be missing.
    """
    errors = []
    parts = [np.asarray(b, dtype=np.int64) for b in list(hot_batches) + list(cold_batches)]
    indices = np.concatenate(parts) if parts else np.zeros(0, np.int64)
    if indices.size and (indices.min() < 0 or indices.max() >= num_inputs):
        errors.append("a packed index lies outside the input range")
        return errors
    counts = np.bincount(indices, minlength=num_inputs)
    repeated = int(np.count_nonzero(counts > 1))
    if repeated:
        errors.append(f"{repeated} inputs are packed more than once")
    missing = int(np.count_nonzero(counts == 0))
    if missing > 2 * (batch_size - 1):
        errors.append(f"{missing} inputs are never packed (more than a trimmed tail)")
    return errors


def check_hot_ids(sparse: dict, bags: dict, where: str = "hot batch") -> list[str]:
    """Every id of every sample in ``sparse`` lies in its table's hot bag."""
    errors = []
    for name, ids in sparse.items():
        bag = bags[name]
        if bag.whole_table:
            continue
        inside = np.isin(np.asarray(ids), bag.hot_ids)
        if not inside.all():
            cold = np.unique(np.asarray(ids)[~inside])[:3].tolist()
            errors.append(f"{where} holds cold ids {cold} of table {name}")
    return errors


def hot_bytes(bags: dict) -> int:
    """Bytes of the hot rows of every bag, counted from the ids."""
    return sum(int(np.asarray(bag.hot_ids).size) * bag.dim * 4 for bag in bags.values())


def check_budget(used_bytes: int, budget_bytes: int, what: str = "hot bags") -> list[str]:
    if used_bytes <= budget_bytes:
        return []
    return [f"{what} take {used_bytes} bytes, over the budget of {budget_bytes}"]


def check_ranking(item_ids, scores, candidates, top_k: int) -> list[str]:
    """A ranking response: ``top_k`` distinct candidates, scores descending."""
    errors = []
    item_ids = np.asarray(item_ids)
    scores = np.asarray(scores)
    if item_ids.size != min(top_k, np.asarray(candidates).size):
        errors.append(f"response holds {item_ids.size} items, expected {top_k}")
    if np.unique(item_ids).size != item_ids.size:
        errors.append("response repeats an item")
    if not np.isin(item_ids, candidates).all():
        errors.append("response holds an item that is not a candidate")
    if np.any(np.diff(scores) > 0):
        errors.append("response scores are not in descending order")
    return errors


def check_top_k_matches(item_ids, candidates, reference_scores, top_k: int) -> list[str]:
    """The response is the top-k of a full re-score (ties may swap)."""
    candidates = np.asarray(candidates)
    reference_scores = np.asarray(reference_scores)
    by_id = dict(zip(candidates.tolist(), reference_scores.tolist()))
    if not all(int(i) in by_id for i in np.asarray(item_ids)):
        return ["response holds an item outside its candidates"]
    got = sorted((by_id[int(i)] for i in item_ids), reverse=True)
    want = sorted(reference_scores.tolist(), reverse=True)[:top_k]
    if got != want:
        return ["top-k differs from the top-k of a full re-score"]
    return []


def check_bytes_equal(params_a, params_b, what: str = "replica parameters") -> list[str]:
    """Two lists of arrays are byte-for-byte identical."""
    if len(params_a) != len(params_b):
        return [f"{what}: {len(params_a)} vs {len(params_b)} arrays"]
    for index, (a, b) in enumerate(zip(params_a, params_b)):
        a = np.asarray(a)
        b = np.asarray(b)
        if a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
            return [f"{what} differ at array {index}"]
    return []


def lookup_hit_rate(sparse: dict, bags: dict, tables) -> float:
    """Share of the lookups into ``tables`` that a membership serves."""
    hits = 0
    total = 0
    for name in tables:
        ids = np.asarray(sparse[name]).ravel()
        hits += int(np.count_nonzero(np.isin(ids, bags[name].hot_ids)))
        total += ids.size
    return hits / total if total else 0.0


def all_hot(sparse: dict, bags: dict, num_rows: int) -> np.ndarray:
    """Per-sample: does every lookup of the sample hit a hot bag?"""
    hot = np.ones(num_rows, dtype=bool)
    for name, ids in sparse.items():
        bag = bags[name]
        if bag.whole_table:
            continue
        ids = np.asarray(ids)
        hot &= np.isin(ids, bag.hot_ids).reshape(ids.shape[0], -1).all(axis=1)
    return hot
