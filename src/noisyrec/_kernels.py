"""Hot numeric kernels, vectorised with numpy, the one all-cell sum and the
row-tile loop.

The factor kernels gather embedding rows with np.take(..., axis=0) and
biases with 1-D np.take, which return what fancy indexing returns at a
fraction of its cost on narrow tables. `factor_backward` lays each side's
weights out as one (d + 1) x B block, the gathered other-side embeddings
transposed and times coef over a row of coef, and sums it with one bincount
over the bins k * n_rows + row. bincount adds a bin's weights in input
order, so every parameter sums its per-example contributions in batch
order, and the gradient arrays equal a plain per-row loop bit for bit.
`values_at_ranks` is the one order-statistic selection, behind the quantile
levels and the extreme cells. The Monte-Carlo kernel draws from one seeded
generator, so its replications are deterministic per seed; it computes each
cell's observed contribution once, before the draws, and then draws one
uniform per cell, which decides both the observation and the observed label.
A replication's mean is two dot products of threshold indicators with
per-cell differences, so it equals the whole-matrix mean of the drawn
contributions up to the rounding of those dot products.

`cell_sum` is how the all-cell means (the seven estimators, the truth and
the bias oracle) reduce an n x m matrix of per-cell terms without building
it. numpy sums a contiguous float64 range with a pairwise tree: a range of
more than 128 cells splits at n // 2 rounded down to a multiple of 8, and a
range of at most 128 cells is summed by one 8-accumulator loop. `cell_sum`
follows the same splits down to ranges of at most TILE_CELLS cells (never
fewer than 128), which a fill callback writes into one reused buffer of
256 KiB and np.add.reduce sums. Each leaf is therefore a subtree of numpy's
own tree, and the sum equals np.add.reduce (and, divided by the cell count,
np.mean) of the row-major matrix bit for bit. The split rule is a numpy
internal: tests pin `cell_sum` to np.add.reduce, so that a numpy that
changes it fails loudly.

`row_tiles` is how the Monte-Carlo draws walk their replications: in
consecutive slices of tile_height(m) = max(1, TILE_CELLS // m) rows, so that
each tile's float64 temporaries stay near TILE_CELLS cells instead of
n_reps x m. A generator drawn tile by tile yields the same stream, in the
same order, as one whole-array draw. The generator adds its low-rank score
product in the row tiles of the score matrix, and elementwise work on a
flat array of n cells (the SKEW scale, the flip kinds' pool, the CLI's
default imputation) walks row_tiles(n, 1): TILE_CELLS cells a tile.
"""

from __future__ import annotations

import numpy as np

# Read by the benchmark harness, which records it with every run.
ACTIVE_BACKEND = "numpy"

# Cells per row tile and per leaf of cell_sum: 256 KiB of float64.
TILE_CELLS = 32_768

# numpy sums a range of at most this many cells without splitting it.
PAIRWISE_BLOCK = 128


def cell_sum(fill, n_cells: int) -> float:
    """np.add.reduce of the n_cells row-major cells, bit for bit, holding at
    most one leaf of max(TILE_CELLS, PAIRWISE_BLOCK) cells at a time.

    fill(start, stop, out) writes cells [start, stop) into out, a float64
    buffer of stop - start cells; it is called on ascending ranges that
    exactly cover [0, n_cells).
    """
    leaf = max(TILE_CELLS, PAIRWISE_BLOCK)
    buf = np.empty(min(leaf, n_cells))
    return float(_pairwise_sum(fill, 0, n_cells, leaf, buf))


def _pairwise_sum(fill, start, stop, leaf, buf):
    """numpy's pairwise sum of cells [start, stop), split as numpy splits
    down to ranges of at most leaf cells. It lives at module level: a nested
    function that called itself would be a reference cycle, holding fill and
    the arrays that fill reads until the cyclic garbage collector ran."""
    n = stop - start
    if n <= leaf:
        out = buf[:n]
        fill(start, stop, out)
        return np.add.reduce(out)
    half = n // 2
    half -= half % 8
    return (_pairwise_sum(fill, start, start + half, leaf, buf)
            + _pairwise_sum(fill, start + half, stop, leaf, buf))


def tile_height(n_cols: int) -> int:
    """Rows per tile of a matrix with n_cols columns."""
    return max(1, TILE_CELLS // max(n_cols, 1))


def row_tiles(n_rows: int, n_cols: int):
    """Consecutive row slices covering range(n_rows), each of
    tile_height(n_cols) rows but possibly the last."""
    height = tile_height(n_cols)
    for start in range(0, n_rows, height):
        yield slice(start, min(start + height, n_rows))


# ---------------------------------------------------------------------------
# Factor-model batch forward / backward
# ---------------------------------------------------------------------------

def factor_scores(u_idx, i_idx, user_emb, item_emb, user_bias, item_bias,
                  global_bias):
    s = np.einsum("bd,bd->b", np.take(user_emb, u_idx, axis=0),
                  np.take(item_emb, i_idx, axis=0))
    return (s + np.take(user_bias, u_idx) + np.take(item_bias, i_idx)
            + global_bias)


def _side_grads(idx, n_rows, other_emb, other_idx, coef):
    """Embedding and bias gradients of one side: its (d + 1) x B weights,
    the gathered other-side embeddings transposed times coef over a coef
    row, summed by one bincount into the bins k * n_rows + idx."""
    d, batch = other_emb.shape[1], coef.shape[0]
    w = np.empty((d + 1, batch))
    np.multiply(np.take(other_emb, other_idx, axis=0).T, coef, out=w[:d])
    w[d] = coef
    bins = np.arange(d + 1)[:, None] * n_rows + idx
    g = np.bincount(bins.ravel(), w.ravel(), minlength=(d + 1) * n_rows)
    g = g.reshape(d + 1, n_rows)
    return g[:d].T, g[d]


def factor_backward(u_idx, i_idx, user_emb, item_emb, coef):
    """Accumulate gradients of sum_b coef[b] * s_b over batch b.

    Returns dense gradient arrays matching the parameter shapes. Each
    `bincount` sums a bin's weights in input order, so every gradient entry
    adds its contributions in batch order, as the per-row loop does.
    """
    g_ue, g_ub = _side_grads(u_idx, user_emb.shape[0], item_emb, i_idx, coef)
    g_ie, g_ib = _side_grads(i_idx, item_emb.shape[0], user_emb, u_idx, coef)
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


def mc_dr_estimates(n_reps, seed, p_true, p_hat, e_bar, s1, s0, q1):
    """Per-replication OME-DR estimates under joint (O, R | R*) resampling.

    p_true, p_hat, e_bar, s1, s0, q1 are flat per-cell arrays; s1/s0 are the
    surrogate losses at observed label 1/0 and q1 = P(r=1 | r*) per cell.
    A draw's contribution (1 - o/p_hat) e_bar + (o/p_hat) s is e_bar where
    o = 0, and a1 or a0 where o = 1 with r = 1 or 0. One uniform u per cell
    draws (o, r): u < p_true q1 gives (1, 1), else u < p_true gives (1, 0),
    else o = 0, which is the law of O ~ Bern(p_true) and R | O = 1 ~
    Bern(q1). A replication's mean is therefore
    (sum(e_bar) + [u < p_true].(a0 - e_bar) + [u < p_true q1].(a1 - a0))
    / n_cells, two dot products per tile of replications (one row each),
    which round differently from an np.mean of the contributions.
    """
    rng = np.random.default_rng(seed)
    n_cells = p_true.shape[0]
    w = 1.0 / p_hat
    a1 = (1.0 - w) * e_bar + w * s1
    a0 = (1.0 - w) * e_bar + w * s0
    p_pos = p_true * q1
    d_obs = a0 - e_bar
    d_pos = a1 - a0
    base = e_bar.sum()
    out = np.empty(n_reps)
    u = np.empty((min(tile_height(n_cells), n_reps), n_cells))
    hit = np.empty_like(u)
    for t in row_tiles(n_reps, n_cells):
        u_t, hit_t = u[:t.stop - t.start], hit[:t.stop - t.start]
        rng.random(out=u_t)
        np.less(u_t, p_true, out=hit_t, casting="unsafe")
        total = hit_t @ d_obs
        np.less(u_t, p_pos, out=hit_t, casting="unsafe")
        total += hit_t @ d_pos
        out[t] = (base + total) / n_cells
    return out
