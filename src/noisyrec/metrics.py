"""Ranking evaluation: AUC, NDCG@K, Recall@K with binary relevance.

Per-user metrics are macro-averaged over users with at least one positive.
Score ties within a user's ranking break by ascending item index, which the
values depend on, so the rule is fixed here rather than left to the sort.
"""

from __future__ import annotations

import numpy as np

from .data import ValidationError


def class_counts(labels) -> tuple[int, int]:
    """(positives, negatives) of 0/1 labels; a class left empty, which no
    AUC can be read from, is a ValidationError."""
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("need at least one positive and one negative")
    return n_pos, n_neg


def auc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative;
    ties count one half (rank-sum form)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos, n_neg = class_counts(labels)
    ranks = _average_ranks(scores)
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties given their mean rank, as
    scipy.stats.rankdata(x, method="average"); all NaN if x holds a NaN.
    Every rank is a half-integer, so sums of ranks are exact."""
    if np.isnan(x).any():
        return np.full(x.shape, np.nan)
    order = np.argsort(x)  # tied values share one rank, in any order
    xs = x[order]
    new_group = np.concatenate(([True], xs[1:] != xs[:-1]))
    bounds = np.append(np.flatnonzero(new_group), x.size)
    # a group spanning sorted positions [start, end) has mean rank
    # (start + 1 + end) / 2
    group_rank = 0.5 * (bounds[:-1] + bounds[1:] + 1)
    ranks = np.empty(x.size)
    ranks[order] = group_rank[np.cumsum(new_group) - 1]
    return ranks


def ndcg_at_k(scores: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Macro-averaged NDCG@k with log2 discount; users without positives
    are skipped. scores/labels are (n_users, n_items)."""
    return _ranked_metric(scores, labels, k, _ndcg)


def recall_at_k(scores: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Macro-averaged hits@k / positives; users without positives skipped."""
    return _ranked_metric(scores, labels, k, _recall)


def _ranked_metric(scores, labels, k, per_user) -> float:
    """Mean over users with a positive of per_user(hits, n_pos), where hits
    marks the positives among each user's top min(k, n_items) items."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    labels = np.atleast_2d(np.asarray(labels))
    n_pos = (labels == 1).sum(axis=1)
    users = np.flatnonzero(n_pos)
    if users.size == 0:
        raise ValidationError("no users with positive labels")
    # descending score, ties by ascending item index: a stable sort of the
    # negated scores keeps tied items in index order
    top = np.argsort(-scores[users], axis=1, kind="stable")[:, :k]
    hits = np.take_along_axis(labels[users], top, axis=1) == 1
    return float(np.mean(per_user(hits, n_pos[users])))


def _ndcg(hits, n_pos):
    discounts = 1.0 / np.log2(np.arange(2, hits.shape[1] + 2))
    dcg = (hits * discounts).sum(axis=1)
    # the ideal DCG of h positives is the sum of the first h discounts,
    # summed once per distinct h
    ideal_hits, at = np.unique(np.minimum(n_pos, hits.shape[1]),
                               return_inverse=True)
    idcg = np.array([discounts[:h].sum() for h in ideal_hits])
    return dcg / idcg[at]


def _recall(hits, n_pos):
    return hits.sum(axis=1) / n_pos
