import itertools
import math

import numpy as np
import pytest

from noisyrec.data import ValidationError, make_rng
from noisyrec.metrics import _average_ranks, auc, ndcg_at_k, recall_at_k


def auc_brute(scores, labels):
    """Pairwise-comparison definition of AUC with half credit for ties."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def topk_brute(scores, k):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return order[:k]


def ndcg_brute(scores, labels, k):
    vals = []
    for u in range(scores.shape[0]):
        n_pos = int((labels[u] == 1).sum())
        if n_pos == 0:
            continue
        top = topk_brute(list(scores[u]), k)
        dcg = sum(1.0 / math.log2(rank + 2)
                  for rank, i in enumerate(top) if labels[u][i] == 1)
        idcg = sum(1.0 / math.log2(rank + 2)
                   for rank in range(min(n_pos, k)))
        vals.append(dcg / idcg)
    return float(np.mean(vals))


def recall_brute(scores, labels, k):
    vals = []
    for u in range(scores.shape[0]):
        n_pos = int((labels[u] == 1).sum())
        if n_pos == 0:
            continue
        top = topk_brute(list(scores[u]), k)
        hits = sum(1 for i in top if labels[u][i] == 1)
        vals.append(hits / n_pos)
    return float(np.mean(vals))


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_reversed(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_all_tied_is_half(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_hand_value(self):
        # pairs: (0.7>0.4)=1, (0.7>0.6)=1, (0.3>0.4)=0, (0.3<0.6)=0 -> 0.5
        assert auc([0.7, 0.3, 0.4, 0.6], [1, 1, 0, 0]) == 0.5

    def test_degenerate_labels_error(self):
        with pytest.raises(ValidationError):
            auc([0.5, 0.6], [1, 1])

    def test_matches_brute_force(self):
        rng = make_rng(0)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            scores = np.round(rng.random(n), 1)  # ties likely
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            assert auc(scores, labels) == pytest.approx(
                auc_brute(list(scores), list(labels)))

    def test_heavy_ties_equal_scipy_rank_sum_exactly(self):
        from scipy.stats import rankdata
        rng = make_rng(2)
        scores = rng.integers(0, 5, size=20_000) / 4.0
        labels = (rng.random(20_000) < 0.3).astype(int)
        n_pos = int(labels.sum())
        n_neg = labels.size - n_pos
        ranks = rankdata(scores, method="average")
        want = ((float(ranks[labels == 1].sum()) - n_pos * (n_pos + 1) / 2.0)
                / (n_pos * n_neg))
        assert auc(scores, labels) == want

    def test_monotone_transform_invariance(self):
        rng = make_rng(1)
        scores = rng.random(20)
        labels = rng.integers(0, 2, size=20)
        labels[0], labels[1] = 0, 1
        assert auc(scores, labels) == pytest.approx(
            auc(np.exp(3.0 * scores), labels))


class TestRankedMetrics:
    def test_hand_value_ndcg(self):
        scores = np.array([[0.9, 0.8, 0.7]])
        labels = np.array([[0, 1, 1]])
        expected = (1 / math.log2(3) + 1 / math.log2(4)) / (
            1 / math.log2(2) + 1 / math.log2(3))
        assert ndcg_at_k(scores, labels, 2) == pytest.approx(
            (1 / math.log2(3)) / (1 / math.log2(2) + 1 / math.log2(3)))
        assert ndcg_at_k(scores, labels, 3) == pytest.approx(expected)

    def test_hand_value_recall(self):
        scores = np.array([[0.9, 0.8, 0.7, 0.1]])
        labels = np.array([[0, 1, 0, 1]])
        assert recall_at_k(scores, labels, 2) == pytest.approx(0.5)
        assert recall_at_k(scores, labels, 4) == pytest.approx(1.0)

    def test_users_without_positives_skipped(self):
        scores = np.array([[0.9, 0.1], [0.8, 0.2]])
        labels = np.array([[1, 0], [0, 0]])
        assert recall_at_k(scores, labels, 1) == 1.0

    def test_no_eligible_users_errors(self):
        with pytest.raises(ValidationError):
            ndcg_at_k(np.array([[0.5]]), np.array([[0]]), 1)

    def test_k_must_be_positive(self):
        with pytest.raises(ValidationError):
            recall_at_k(np.array([[0.5]]), np.array([[1]]), 0)

    def test_tie_break_by_item_index(self):
        scores = np.array([[0.5, 0.5]])
        labels = np.array([[0, 1]])
        # item 0 wins the tie, so the single top-1 slot misses the positive
        assert recall_at_k(scores, labels, 1) == 0.0

    @pytest.mark.parametrize("k", [1, 3, 5, 10])
    def test_matches_brute_force_random_instances(self, k):
        rng = make_rng(42 + k)
        for _ in range(100):
            n_u = int(rng.integers(1, 8))
            n_i = int(rng.integers(max(2, k), 15))
            scores = np.round(rng.random((n_u, n_i)), 1)
            labels = (rng.random((n_u, n_i)) < 0.4).astype(int)
            if not labels.any():
                labels[0, 0] = 1
            assert ndcg_at_k(scores, labels, k) == pytest.approx(
                ndcg_brute(scores, labels, k))
            assert recall_at_k(scores, labels, k) == pytest.approx(
                recall_brute(scores, labels, k))


def _topk_order_reference(scores, k):
    # descending score, ties by ascending item index
    order = np.lexsort((np.arange(scores.shape[0]), -scores))
    return order[:k]


def _user_ndcg_reference(scores, labels, k, n_pos):
    top = _topk_order_reference(scores, k)
    discounts = 1.0 / np.log2(np.arange(2, top.shape[0] + 2))
    dcg = float(np.sum((labels[top] == 1) * discounts))
    ideal_hits = min(n_pos, top.shape[0])
    idcg = float(np.sum(discounts[:ideal_hits]))
    return dcg / idcg


def _user_recall_reference(scores, labels, k, n_pos):
    top = _topk_order_reference(scores, k)
    return float((labels[top] == 1).sum()) / n_pos


def ranked_reference(scores, labels, k, per_user):
    """The per-user form of ndcg_at_k and recall_at_k: one lexsort and one
    metric value per user, then their mean."""
    vals = []
    for u in range(scores.shape[0]):
        pos = int((labels[u] == 1).sum())
        if pos == 0:
            continue
        vals.append(per_user(scores[u], labels[u], k, pos))
    return float(np.mean(vals))


class TestRankedOnePass:
    """ndcg_at_k and recall_at_k rank every user in one sort, and equal the
    per-user form bit for bit."""

    # values with ties, both zeros and both infinities
    LEVELS = np.array([-np.inf, -1.5, -0.0, 0.0, 0.25, 0.5, 1.0, np.inf])

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_per_user_reference(self, seed):
        rng = make_rng(300 + seed)
        for _ in range(40):
            n_u = int(rng.integers(1, 12))
            n_i = int(rng.integers(1, 40))
            if rng.random() < 0.5:
                scores = rng.choice(self.LEVELS, size=(n_u, n_i))
            else:
                scores = np.round(rng.normal(size=(n_u, n_i)), 1)
            labels = (rng.random((n_u, n_i))
                      < rng.uniform(0.0, 1.0, size=(n_u, 1))).astype(int)
            labels[0, int(rng.integers(n_i))] = 1
            for k in range(1, n_i + 3):
                assert ndcg_at_k(scores, labels, k) == ranked_reference(
                    scores, labels, k, _user_ndcg_reference)
                assert recall_at_k(scores, labels, k) == ranked_reference(
                    scores, labels, k, _user_recall_reference)

    def test_equals_reference_at_benchmark_size(self):
        # 500 users of 500 items, with k past the 8 terms where numpy's
        # sum turns pairwise
        rng = make_rng(9)
        scores = np.round(rng.random((500, 500)), 2)
        labels = (rng.random((500, 500)) < 0.05).astype(np.int8)
        for k in (5, 20, 130):
            assert ndcg_at_k(scores, labels, k) == ranked_reference(
                scores, labels, k, _user_ndcg_reference)
            assert recall_at_k(scores, labels, k) == ranked_reference(
                scores, labels, k, _user_recall_reference)

    def test_signed_zeros_tie(self):
        # -0.0 and 0.0 are equal scores: item 0 wins by index
        labels = np.array([[0, 1]])
        assert recall_at_k(np.array([[0.0, -0.0]]), labels, 1) == 0.0
        assert recall_at_k(np.array([[-0.0, 0.0]]), labels, 1) == 0.0


class TestAverageRanks:
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_scipy_with_ties_and_signed_zeros(self, seed):
        from scipy.stats import rankdata
        rng = make_rng(400 + seed)
        x = rng.choice(TestRankedOnePass.LEVELS, size=1000)
        assert np.array_equal(_average_ranks(x), rankdata(x, method="average"))
