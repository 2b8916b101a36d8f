"""Command-line driver: benchmark generation, estimator evaluation,
training, ingestion, and multi-seed sweeps.

Exit codes: 0 success, 2 validation failure or a file that cannot be read
or written (any OSError), 3 training divergence (TrainingDivergence only;
any other error propagates with its traceback).
Reports are CSV with a leading comment line carrying the manifest hash, so
golden files diff cleanly.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np

from ._kernels import row_tiles
from .data import (
    ErrorParams,
    ImputationMatrix,
    PropensityMatrix,
    RatingDataset,
    ValidationError,
    dataset_from_triples,
    load_dataset_triples,
    make_rng,
    read_fields,
    read_triples,
    read_value,
    save_dataset_triples,
)
from .estimators import (
    ESTIMATORS,
    EstimatorInputs,
    relative_error,
    true_inaccuracy,
)
from .losses import LossKind, loss_curves
from .metrics import auc, class_counts, ndcg_at_k, recall_at_k
from .models import (
    SgdConfig,
    TrainingDivergence,
    save_model,
    train_propensity,
)
from .noise import check_k_extreme, identify_error_params
from .synthbench import (
    BenchmarkSpec,
    load_instance,
    manifest_hash,
    sample_instance,
    save_instance,
)
from .training import (
    AltTrainConfig,
    alternating_denoise_train,
    check_pretrain_method,
    pretrain_noisy_model,
    train_noisy_factor_model,
)


def parse_config_file(path) -> dict:
    """Plain-text `key = value` pairs, nesting via dotted keys. A key given
    twice, as a value or a section, is a ValidationError naming both lines."""
    out: dict = {}
    first: dict = {}  # dotted key or section -> the line that first gave it
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            node = out
            parts = key.split(".")
            for depth, part in enumerate(parts[:-1], start=1):
                name = ".".join(parts[:depth])
                node = node.setdefault(part, {})
                if not isinstance(node, dict):
                    raise ValidationError(f"{path}:{lineno}: {part!r} is a "
                                          f"value on line {first[name]}, "
                                          "not a section")
                first.setdefault(name, lineno)
            if key in first:
                raise ValidationError(
                    f"{path}:{lineno}: {key!r} is already given on line "
                    f"{first[key]}")
            first[key] = lineno
            node[parts[-1]] = value
    return out


def _rates(key: str, value) -> ErrorParams:
    """A "rho01,rho10" value as flip rates."""
    rates = read_value(key, value, tuple)
    if len(rates) != 2:
        raise ValidationError(f"{key}: expected rho01,rho10, got {value!r}")
    return ErrorParams(*rates)


def _write_report(path, header, rows, manifest: dict) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# manifest={manifest_hash(manifest)}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def _instance_from_config(cfg: dict, seed=None):
    """The instance of a spec config, with its seed if one is given; a
    `scores` key names a comma-separated completed score matrix."""
    kwargs = read_fields(
        BenchmarkSpec, {k: v for k, v in cfg.items() if k != "scores"},
        "spec field", required=("n_users", "n_items", "rho01", "rho10"))
    if seed is not None:
        kwargs["seed"] = seed
    spec = BenchmarkSpec(**kwargs)
    scores = None
    if "scores" in cfg:
        try:
            scores = np.loadtxt(cfg["scores"], delimiter=",", ndmin=2)
        except ValueError as exc:  # a ragged row or a non-numeric field
            raise ValidationError(
                f"scores file {cfg['scores']}: {exc}") from exc
    return sample_instance(spec, score_matrix=scores)


def cmd_synth(args) -> int:
    inst = _instance_from_config(parse_config_file(args.spec), args.seed)
    save_instance(args.out, inst)
    print(f"wrote instance to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def _default_imputation(inst, loss: LossKind) -> ImputationMatrix:
    """Imputed error against the mean observed rating as a soft label:
    r_bar l(f, 1) + (1 - r_bar) l(f, 0), written into one matrix a tile of
    cells at a time."""
    o = inst.observed_mask
    n_obs = int(o.sum())
    r_bar = float((o * inst.observed_ratings).sum() / max(n_obs, 1))
    r_hat = inst.prediction.r_hat
    f, e_bar = r_hat.ravel(), np.empty(r_hat.size)
    for t in row_tiles(f.size, 1):
        l1, l0 = loss_curves(loss, f[t])
        np.multiply(r_bar, l1, out=e_bar[t])
        e_bar[t] += (1.0 - r_bar) * l0
    return ImputationMatrix(e_bar.reshape(r_hat.shape))


def _resolve_rho(inst, mode, given, seed) -> ErrorParams:
    if given is not None and mode != "given":
        raise ValidationError(f"--rho needs --rho-mode given, not {mode}")
    if mode == "true":
        return inst.spec.rho
    if mode == "given":
        if given is None:
            raise ValidationError("--rho required with rho-mode=given")
        return _rates("--rho", given)
    # estimated: pretrain a noisy-rate model, which checks the propensities
    # as estimation does, and read off the extremes
    dataset = inst.to_dataset()
    q = pretrain_noisy_model(
        dataset, "ips",
        SgdConfig(learning_rate=0.1, batch_size=8192, max_epochs=30,
                  seed=seed),
        p_hat=inst.p_hat if inst.p_hat is not None else inst.p_true)
    k = max(1, int(0.001 * dataset.n_users * dataset.n_items))
    return identify_error_params(q, k_extreme=k)


def _estimator_rows(inst, propensities, rho_hat, names) -> list:
    """One [name, value, target, relative_error] row per estimator name, with
    the chosen propensities used as given."""
    loss = LossKind.squared()
    target = true_inaccuracy(inst.prediction, inst.true_ratings, loss)
    p_arr = inst.p_true if propensities == "true" else inst.p_hat
    inputs = EstimatorInputs(
        dataset=inst.to_dataset(),
        predictions=inst.prediction,
        loss=loss,
        p_hat=None if p_arr is None else PropensityMatrix(p_arr, floor=0.0),
        e_bar=_default_imputation(inst, loss),
        rho_hat=rho_hat,
    )
    rows = []
    for name in names:
        fn = ESTIMATORS.get(name)
        if fn is None:
            rows.append([name, "error", "", f"unknown estimator {name!r}"])
            continue
        try:
            value = fn(inputs)
            rows.append([name, f"{value:.10g}", f"{target:.10g}",
                         f"{relative_error(target, value):.10g}"])
        except ValidationError as exc:
            rows.append([name, "error", "", str(exc)])
    return rows


def cmd_estimate(args) -> int:
    inst = load_instance(args.instance)
    names = [n.strip() for n in args.estimators.split(",")]
    rho_hat = _resolve_rho(inst, args.rho_mode, args.rho, args.seed)
    rows = _estimator_rows(inst, args.propensities, rho_hat, names)
    _write_report(args.out, ["estimator", "value", "target", "relative_error"],
                  rows, {"instance": inst.spec.manifest(),
                         "estimators": names, "rho_mode": args.rho_mode})
    print(f"wrote report to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _load_training_data(path, seed):
    """Instance dir -> (dataset, eval labels from ground truth).
    Triples file -> (train split dataset, held-out observed labels)."""
    path = Path(path)
    if path.is_dir():
        inst = load_instance(path)
        return inst.to_dataset(), np.asarray(inst.true_ratings)
    dataset = load_dataset_triples(path)
    held_out = dataset.held_out_cells(make_rng(seed))
    train_mask = dataset.observed_mask.copy()
    train_mask.flat[held_out] = 0
    labels = np.full(dataset.shape, -1, dtype=np.int8)
    labels.flat[held_out] = dataset.observed_ratings.flat[held_out]
    train = RatingDataset(dataset.n_users, dataset.n_items, train_mask,
                          dataset.observed_ratings)
    return train, labels


def _evaluate(pred: np.ndarray, labels: np.ndarray, k: int):
    flat_keep = labels.ravel() >= 0
    a = auc(pred.ravel()[flat_keep], labels.ravel()[flat_keep])
    masked = np.where(labels >= 0, labels, 0)
    return a, ndcg_at_k(pred, masked, k), recall_at_k(pred, masked, k)


def _check_at_least(name: str, value: int, low: int) -> None:
    if value < low:
        raise ValidationError(f"{name} must be >= {low}, got {value}")


def cmd_train(args) -> int:
    cfg = parse_config_file(args.config) if args.config else {}

    def option(key, default, kind=int):
        return read_value(key, cfg.pop(key, default), kind)

    sgd = dataclasses.replace(
        SgdConfig(learning_rate=0.1, batch_size=4096, max_epochs=30,
                  seed=args.seed),
        **read_fields(SgdConfig, cfg.pop("sgd", {}), "sgd option", "sgd."))
    pretrain_method = option("pretrain_method", "ips", str)
    propensity_epochs = option("propensity_epochs", 100)
    k = option("k", 5)
    # the keys left are AltTrainConfig's loop counts; one a config leaves
    # out keeps the dataclass default
    alt_cfg = AltTrainConfig(
        rho_init=_rates("rho_init", cfg.pop("rho_init", "0.1,0.1")),
        sgd_prediction=sgd, sgd_imputation=sgd,
        **read_fields(AltTrainConfig, cfg, "train option"))
    _check_at_least("k", k, 1)
    _check_at_least("propensity_epochs", propensity_epochs, 0)
    check_pretrain_method(pretrain_method)
    dataset, labels = _load_training_data(args.data, args.seed)
    class_counts(labels[labels >= 0])  # AUC needs both, checked before output
    if args.method == "ome_alt":  # before any training or output
        check_k_extreme(alt_cfg.k_extreme, dataset.n_users * dataset.n_items)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    prop = train_propensity(
        dataset, SgdConfig(learning_rate=0.5, batch_size=0, weight_decay=0.0,
                           max_epochs=propensity_epochs, seed=args.seed))
    p_hat = prop.export().p_hat

    d = alt_cfg.embedding_dim
    if args.method == "ome_alt":
        q = pretrain_noisy_model(dataset, pretrain_method, sgd, d, p_hat)
        model, _, trace = alternating_denoise_train(dataset, p_hat, q, alt_cfg)
        trace.write_csv(out / "trace.csv")
    else:  # train_noisy_factor_model rejects an unknown method
        model = train_noisy_factor_model(dataset, args.method, sgd, d=d,
                                         p_hat=p_hat)

    save_model(out / "checkpoint.npz", model)
    pred = model.predict_all()
    a, ndcg, rec = _evaluate(pred, labels, k)
    _write_report(out / "eval.csv",
                  ["metric", "value"],
                  [["auc", f"{a:.10g}"], [f"ndcg@{k}", f"{ndcg:.10g}"],
                   [f"recall@{k}", f"{rec:.10g}"]],
                  {"method": args.method, "seed": args.seed,
                   "data": str(args.data)})
    print(f"wrote checkpoint and eval to {out}")
    return 0


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def _finite_rating(text: str) -> float:
    r = float(text)
    if not np.isfinite(r):
        raise ValueError(f"rating {text} is not finite")
    return r


def cmd_ingest(args) -> int:
    if not np.isfinite(args.threshold):  # NaN would binarize all to 0
        raise ValidationError(f"--threshold must be finite: {args.threshold}")
    users, items, ratings = read_triples(args.triples, _finite_rating)
    binary = [1 if r >= args.threshold else 0 for r in ratings]
    dataset = dataset_from_triples(users, items, binary)
    save_dataset_triples(args.out, dataset)
    print(f"wrote {dataset.n_observed} binarized triples to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_one(spec_cfg, seed, names, propensities):
    inst = _instance_from_config(spec_cfg, seed)
    rows = _estimator_rows(inst, propensities, inst.spec.rho, names)
    return [[seed] + row for row in rows]


def cmd_sweep(args) -> int:
    _check_at_least("--n-seeds", args.n_seeds, 1)
    _check_at_least("--jobs", args.jobs, 1)
    cfg = parse_config_file(args.spec)
    names = [n.strip() for n in args.estimators.split(",")]
    seeds = [args.seed + k for k in range(args.n_seeds)]
    rows = []
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            for chunk in pool.map(
                    _sweep_one, [cfg] * len(seeds), seeds,
                    [names] * len(seeds), [args.propensities] * len(seeds)):
                rows.extend(chunk)
    else:
        for seed in seeds:
            rows.extend(_sweep_one(cfg, seed, names, args.propensities))
    _write_report(args.out,
                  ["seed", "estimator", "value", "target", "relative_error"],
                  rows, {"spec": cfg, "seeds": seeds, "estimators": names})
    print(f"wrote sweep report to {args.out}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisyrec",
        description="Noise-corrected debiased recommendation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a benchmark instance")
    p.add_argument("--spec", required=True, help="key=value spec file")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("estimate", help="evaluate estimators on an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--estimators", default="naive,eib,ips,dr,ome_eib,ome_ips,ome_dr")
    p.add_argument("--rho-mode", choices=("true", "estimated", "given"),
                   default="true")
    p.add_argument("--rho", default=None, help="rho01,rho10 for rho-mode=given")
    p.add_argument("--propensities", choices=("true", "perturbed"),
                   default="perturbed")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("train", help="train a prediction model")
    p.add_argument("--data", required=True,
                   help="instance directory or triples file")
    p.add_argument("--method",
                   choices=("naive", "eib", "ips", "dr", "ome_alt"),
                   default="ome_alt")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("ingest", help="binarize raw rating triples")
    p.add_argument("--triples", required=True)
    p.add_argument("--threshold", type=float, default=3.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("sweep", help="multi-seed relative-error table")
    p.add_argument("--spec", required=True)
    p.add_argument("--estimators", default="naive,dr,ome_dr")
    p.add_argument("--n-seeds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--propensities", choices=("true", "perturbed"),
                   default="perturbed")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDivergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
