"""Correctness checks that compute the answer apart from noisyrec.

Every reference here is written from the formulas (squared loss, the
surrogate loss, the estimator definitions, plain SGD) with numpy and Python
loops; nothing calls into noisyrec. Each check raises CheckFailed with a
message, and selftest.py shows that each one rejects a wrong value.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Predictions are clipped into (EPS_OUT, 1 - EPS_OUT) by the factor model.
EPS_OUT = 1e-6


class CheckFailed(AssertionError):
    pass


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def check_close(name: str, got, want, rtol: float, atol: float = 0.0) -> None:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    require(got.shape == want.shape,
            f"{name}: shape {got.shape} != {want.shape}")
    bad = ~(np.abs(got - want) <= atol + rtol * np.abs(want))
    if bad.any():
        idx = np.unravel_index(int(np.argmax(bad)), bad.shape) if bad.ndim \
            else ()
        raise CheckFailed(f"{name}: {float(got[idx])!r} != {float(want[idx])!r} "
                          f"(rtol {rtol:g}, atol {atol:g})")


# ---------------------------------------------------------------------------
# Training: one backward pass and one step of each model, by per-row loops
# ---------------------------------------------------------------------------

def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def _score(p, u, i) -> float:
    return (float(np.dot(p["user_emb"][u], p["item_emb"][i]))
            + p["user_bias"][u] + p["item_bias"][i] + p["global_bias"])


def _squared_curves(f):
    """(l(f, 1), l(f, 0)) for the squared loss."""
    return (f - 1.0) ** 2, f ** 2


def _surrogate_curves(l1, l0, rho01, rho10):
    """(l~(f, 1), l~(f, 0)); also maps the loss derivatives to the
    surrogate's, since the combination is linear."""
    den = 1.0 - rho01 - rho10
    return (((1.0 - rho10) * l1 - rho01 * l0) / den,
            ((1.0 - rho01) * l0 - rho10 * l1) / den)


def _squared_surrogate(f, label, rho01, rho10):
    """(l~(f, label), dl~/df) for the squared loss."""
    s1, s0 = _surrogate_curves(*_squared_curves(f), rho01, rho10)
    d1, d0 = _surrogate_curves(2.0 * (f - 1.0), 2.0 * f, rho01, rho10)
    return (s1, d1) if label == 1 else (s0, d0)


def ref_factor_backward(u_idx, i_idx, user_emb, item_emb, coef):
    """Gradients of sum_b coef[b] * score_b, one row at a time."""
    g_ue = np.zeros_like(user_emb)
    g_ie = np.zeros_like(item_emb)
    g_ub = np.zeros(user_emb.shape[0])
    g_ib = np.zeros(item_emb.shape[0])
    g_b0 = 0.0
    for u, i, c in zip(u_idx, i_idx, coef):
        g_ue[u] += c * item_emb[i]
        g_ie[i] += c * user_emb[u]
        g_ub[u] += c
        g_ib[i] += c
        g_b0 += c
    return g_ue, g_ie, g_ub, g_ib, g_b0


def _sgd_update(params, coefs, u_idx, i_idx, lr, weight_decay):
    g_ue, g_ie, g_ub, g_ib, g_b0 = ref_factor_backward(
        u_idx, i_idx, params["user_emb"], params["item_emb"], coefs)
    return {
        "user_emb": params["user_emb"] - lr * (
            g_ue + weight_decay * params["user_emb"]),
        "item_emb": params["item_emb"] - lr * (
            g_ie + weight_decay * params["item_emb"]),
        "user_bias": params["user_bias"] - lr * g_ub,
        "item_bias": params["item_bias"] - lr * g_ib,
        "global_bias": params["global_bias"] - lr * g_b0,
    }


def ref_prediction_step(params, u_idx, i_idx, o, r, p, rho01, rho10, lr,
                        weight_decay):
    """One plain-SGD step on the mini-batch surrogate-DR objective
    mean_b[(1 - o/p) e_bar + (o/p) l~(f, r)]; e_bar carries no gradient."""
    n = len(u_idx)
    coefs = np.empty(n)
    for b, (u, i) in enumerate(zip(u_idx, i_idx)):
        f = min(max(_sigmoid(_score(params, u, i)), EPS_OUT), 1.0 - EPS_OUT)
        _, dsur = _squared_surrogate(f, int(r[b]), rho01, rho10)
        coefs[b] = o[b] / p[b] * dsur * f * (1.0 - f) / n
    return _sgd_update(params, coefs, u_idx, i_idx, lr, weight_decay)


def ref_imputation_step(params, u_idx, i_idx, o, r, p, pred, rho01, rho10,
                        lr, weight_decay):
    """One plain-SGD step on mean_b[o (l~(pred, r) - e_bar)^2 / p] with the
    linear imputation score e_bar."""
    n = len(u_idx)
    coefs = np.empty(n)
    for b, (u, i) in enumerate(zip(u_idx, i_idx)):
        target, _ = _squared_surrogate(float(pred[b]), int(r[b]), rho01, rho10)
        e_bar = _score(params, u, i)
        coefs[b] = -2.0 * o[b] * (target - e_bar) / p[b] / n
    return _sgd_update(params, coefs, u_idx, i_idx, lr, weight_decay)


def check_params(name: str, got: dict, want: dict) -> None:
    for key in want:
        check_close(f"{name}.{key}", got[key], want[key], rtol=1e-10,
                    atol=1e-14)


def check_predictions(pred) -> None:
    pred = np.asarray(pred)
    require(np.all(np.isfinite(pred)), "predictions: non-finite entries")
    require(np.all((pred > 0.0) & (pred < 1.0)),
            "predictions: entries outside (0, 1)")


def check_trace(records, outer_loops: int) -> None:
    require(len(records) == outer_loops,
            f"trace: {len(records)} records for {outer_loops} loops")
    for k, rec in enumerate(records):
        require(rec.loop == k, f"trace: record {k} has loop {rec.loop}")
        r01, r10 = rec.rho01_hat, rec.rho10_hat
        require(math.isfinite(r01) and math.isfinite(r10)
                and r01 >= 0.0 and r10 >= 0.0 and r01 + r10 < 1.0,
                f"trace: loop {k} has invalid rho ({r01}, {r10})")


def check_auc_floor(value: float, floor: float) -> None:
    require(value >= floor, f"auc {value:.4f} below floor {floor}")


# ---------------------------------------------------------------------------
# Estimation: per-cell formulas, summed over row blocks
# ---------------------------------------------------------------------------

def ref_estimates(pred, observed_mask, observed_ratings, p_hat, e_bar,
                  rho_hat, block: int = 200) -> dict:
    """The seven estimators for the squared loss, from per-cell
    contributions summed over row blocks."""
    n_users, n_items = pred.shape
    sums = dict.fromkeys(("n_obs", "naive", "eib", "ips", "dr", "ome_eib",
                          "ome_ips", "ome_dr"), 0.0)
    for start in range(0, n_users, block):
        rows = slice(start, start + block)
        l1, l0 = _squared_curves(pred[rows])
        s1, s0 = _surrogate_curves(l1, l0, *rho_hat)
        o = observed_mask[rows].astype(np.float64)
        pos = observed_ratings[rows] == 1
        ph, eb = p_hat[rows], e_bar[rows]
        e = np.where(pos, l1, l0)
        s = np.where(pos, s1, s0)
        sums["n_obs"] += o.sum()
        sums["naive"] += (o * e).sum()
        sums["eib"] += (o * e + (1.0 - o) * eb).sum()
        sums["ips"] += (o * e / ph).sum()
        sums["dr"] += (eb + o * (e - eb) / ph).sum()
        sums["ome_eib"] += ((1.0 - o) * eb + o * s).sum()
        sums["ome_ips"] += (o * s / ph).sum()
        sums["ome_dr"] += (eb + o * (s - eb) / ph).sum()
    n_obs = sums.pop("n_obs")
    out = {key: val / (n_users * n_items) for key, val in sums.items()}
    out["naive"] = sums["naive"] / n_obs
    return out


def ref_truth_and_bias(pred, true_ratings, p_hat, p_true, e_bar, rho,
                       rho_hat, block: int = 200) -> tuple[float, float]:
    """The true inaccuracy and the signed bias of OME-DR: its expectation
    over O ~ p_true and R | R* ~ rho, minus the true inaccuracy."""
    n_users, n_items = pred.shape
    rho01, rho10 = rho
    true = bias = 0.0
    for start in range(0, n_users, block):
        rows = slice(start, start + block)
        l1, l0 = _squared_curves(pred[rows])
        s1, s0 = _surrogate_curves(l1, l0, *rho_hat)
        star = true_ratings[rows] == 1
        clean = np.where(star, l1, l0)
        expected_s = np.where(star, (1.0 - rho01) * s1 + rho01 * s0,
                              rho10 * s1 + (1.0 - rho10) * s0)
        weight = p_true[rows] / p_hat[rows]
        true += clean.sum()
        bias += ((1.0 - weight) * e_bar[rows] + weight * expected_s
                 - clean).sum()
    n_cells = n_users * n_items
    return true / n_cells, bias / n_cells


def check_estimates(got: dict, want: dict, true: float, bias: float) -> None:
    """Estimator values, the true inaccuracy and the oracle against the
    per-cell reference; the oracle is the absolute value of the signed
    bias."""
    for name, value in want.items():
        check_close(f"estimate {name}", got[name], value, rtol=1e-10,
                    atol=1e-15)
    check_close("true_inaccuracy", got["true"], true, rtol=1e-10)
    check_close("bias_ome_dr_oracle", got["oracle"], abs(bias), rtol=1e-8,
                atol=1e-14)


def check_oracle_zero(value: float) -> None:
    require(abs(value) <= 1e-12,
            f"oracle {value!r} is not 0 at the true propensities and rho")


def check_identified(rho_hat, rho, gamma_min: float, gamma_max: float) -> None:
    """Exact noisy rate q = (1 - rho01 - rho10) gamma + rho10 gives
    rho10_hat = q_min and rho01_hat = 1 - q_max."""
    r01, r10 = rho
    den = 1.0 - r01 - r10
    check_close("identified rho10", rho_hat[1], r10 + den * gamma_min,
                rtol=0.0, atol=1e-12)
    check_close("identified rho01", rho_hat[0], r01 + den * (1.0 - gamma_max),
                rtol=0.0, atol=1e-12)


def check_monte_carlo(reps, target: float, bias: float, z: float = 5.0):
    """The replication mean estimates target + signed bias."""
    reps = np.asarray(reps, dtype=np.float64)
    se = float(reps.std(ddof=1) / math.sqrt(reps.shape[0]))
    gap = abs(float(reps.mean()) - (target + bias))
    require(gap <= z * se,
            f"monte carlo mean off target + bias by {gap / se:.2f} SE")


# ---------------------------------------------------------------------------
# CLI round trip
# ---------------------------------------------------------------------------

def check_instances_equal(loaded, expected) -> None:
    require(loaded.spec == expected.spec, "loaded spec differs")
    for name in ("gamma", "five_scale", "p_true", "p_hat", "observed_mask",
                 "true_ratings", "observed_ratings"):
        a, b = getattr(loaded, name), getattr(expected, name)
        require(a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes(),
                f"loaded {name} differs from the in-memory instance")
    require(loaded.prediction.r_hat.tobytes()
            == expected.prediction.r_hat.tobytes(),
            "loaded prediction differs from the in-memory instance")


def read_report(path) -> tuple[str, dict]:
    """(manifest hash, {estimator: (value, target, relative_error)})."""
    lines = Path(path).read_text().splitlines()
    require(lines and lines[0].startswith("# manifest="),
            f"{path}: no manifest line")
    rows = list(csv.reader(lines[1:]))
    require(rows[0] == ["estimator", "value", "target", "relative_error"],
            f"{path}: unexpected header {rows[0]}")
    values = {}
    for row in rows[1:]:
        require(len(row) == 4 and row[1] != "error", f"{path}: row {row}")
        values[row[0]] = tuple(float(v) for v in row[1:])
    return lines[0][len("# manifest="):], values


def check_report_values(got: dict, want: dict) -> None:
    """Report rows are printed with 10 significant digits."""
    require(sorted(got) == sorted(want),
            f"report estimators {sorted(got)} != {sorted(want)}")
    for name, triple in want.items():
        check_close(f"report {name}", got[name], triple, rtol=1e-9)


def manifest_hash(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True, default=str)
                          .encode()).hexdigest()[:16]


def spec_manifest(spec) -> dict:
    """The spec's fields plus the hash of their sorted JSON form."""
    fields = dataclasses.asdict(spec)
    fields["spec_hash"] = hashlib.sha256(
        json.dumps(fields, sort_keys=True).encode()).hexdigest()[:16]
    return fields


def check_manifest(got_hash: str, spec, estimators: list,
                   rho_mode: str) -> None:
    want = manifest_hash({"instance": spec_manifest(spec),
                          "estimators": estimators, "rho_mode": rho_mode})
    require(got_hash == want, f"manifest {got_hash} != {want}")
