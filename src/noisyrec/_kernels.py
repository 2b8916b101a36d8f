"""Hot numeric kernels, vectorised with numpy.

`factor_backward` adds each parameter's per-example contributions in batch
order, so its gradient arrays equal a plain per-row loop bit for bit.
`values_at_ranks` is the one order-statistic selection, behind the quantile
levels and the extreme cells. The Monte-Carlo kernel draws from one seeded
generator, so its replications are deterministic per seed; it computes each
cell's observed contribution once, before the draws.
"""

from __future__ import annotations

import numpy as np

# Read by the benchmark harness, which records it with every run.
ACTIVE_BACKEND = "numpy"


# ---------------------------------------------------------------------------
# Factor-model batch forward / backward
# ---------------------------------------------------------------------------

def factor_scores(u_idx, i_idx, user_emb, item_emb, user_bias, item_bias,
                  global_bias):
    s = np.einsum("bd,bd->b", user_emb[u_idx], item_emb[i_idx])
    return s + user_bias[u_idx] + item_bias[i_idx] + global_bias


def factor_backward(u_idx, i_idx, user_emb, item_emb, coef):
    """Accumulate gradients of sum_b coef[b] * s_b over batch b.

    Returns dense gradient arrays matching the parameter shapes. Each
    `bincount` sums a bin's weights in batch order, as the per-row loop does.
    """
    n, m = user_emb.shape[0], item_emb.shape[0]
    w_ue = coef[:, None] * item_emb[i_idx]
    w_ie = coef[:, None] * user_emb[u_idx]
    g_ue = np.empty_like(user_emb)
    g_ie = np.empty_like(item_emb)
    for k in range(user_emb.shape[1]):
        g_ue[:, k] = np.bincount(u_idx, w_ue[:, k], minlength=n)
        g_ie[:, k] = np.bincount(i_idx, w_ie[:, k], minlength=m)
    g_ub = np.bincount(u_idx, coef, minlength=n)
    g_ib = np.bincount(i_idx, coef, minlength=m)
    return g_ue, g_ie, g_ub, g_ib, float(coef.sum())


def values_at_ranks(values: np.ndarray, ranks) -> np.ndarray:
    """np.partition(values, ranks)[ranks] for ascending ranks, selecting one
    rank at a time on the suffix not yet placed. numpy selects a single rank
    with its vectorised x86 (AVX2/AVX-512) path and a list of ranks without
    it: four ranks of 4M float64 values took 45 ms one at a time against
    130 ms as a list on an AVX-512 CPU."""
    part = values.copy()
    at_ranks = np.empty(len(ranks))
    lo = 0
    for j, r in enumerate(ranks):
        part[lo:].partition(r - lo)  # may move the value at lo: read it now
        at_ranks[j] = part[r]
        lo = r
    return at_ranks


def mc_dr_estimates(n_reps, seed, p_true, p_hat, e_bar, s1, s0, q1,
                    chunk=4096):
    """Per-replication OME-DR estimates under joint (O, R | R*) resampling.

    p_true, p_hat, e_bar, s1, s0, q1 are flat per-cell arrays; s1/s0 are the
    surrogate losses at observed label 1/0 and q1 = P(r=1 | r*) per cell.
    A draw's contribution (1 - o/p_hat) e_bar + (o/p_hat) s is e_bar where
    o = 0, and a1 or a0 where o = 1, so a replication only selects.
    """
    n_reps = int(n_reps)
    rng = np.random.default_rng(int(seed))
    n_cells = p_true.shape[0]
    out = np.empty(n_reps)
    w = 1.0 / p_hat
    a1 = (1.0 - w) * e_bar + w * s1
    a0 = (1.0 - w) * e_bar + w * s0
    done = 0
    while done < n_reps:
        m = min(chunk, n_reps - done)
        o = rng.random((m, n_cells)) < p_true
        r = rng.random((m, n_cells)) < q1
        contrib = np.where(o, np.where(r, a1, a0), e_bar)
        out[done:done + m] = contrib.mean(axis=1)
        done += m
    return out
