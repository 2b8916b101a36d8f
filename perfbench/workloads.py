"""The three workloads. Each one prepares its inputs from the seed, runs
whole rounds of the same operations, and checks its outputs in the first
round while the clock is paused.

Functions of noisyrec are looked up through their modules at call time
(``training.pretrain_noisy_model``), so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import time
from pathlib import Path

import numpy as np

from noisyrec import cli, estimators, metrics, models, noise, synthbench
from noisyrec import training, _kernels
from noisyrec.data import (ErrorParams, ImputationMatrix, PredictionMatrix,
                           PropensityMatrix)
from noisyrec.losses import LossKind

import checks

SQUARED = LossKind.squared()


class OperationFailed(Exception):
    """An operation of the round raised or exited non-zero."""


class RoundContext:
    """Accumulates the timed part of a round; ``paused`` excludes the
    benchmark's own checks from the clock and from the trace."""

    def __init__(self, checking: bool, tracer=None):
        self.checking = checking
        self.tracer = tracer
        self.ops = 0
        self.problems: list[str] = []
        self._elapsed = 0.0
        self._start = None

    def start(self):
        self._start = time.perf_counter()

    def stop(self) -> float:
        self._elapsed += time.perf_counter() - self._start
        self._start = None
        return self._elapsed

    @contextlib.contextmanager
    def paused(self):
        self.stop()
        if self.tracer is not None:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.enabled = True
            self.start()

    def check(self, fn, *args) -> None:
        """Run one of the benchmark's checks outside the clock; a failed
        check is recorded and the round goes on."""
        with self.paused():
            try:
                fn(*args)
            except checks.CheckFailed as exc:
                self.problems.append(str(exc))

    def call(self, fn, *args, **kwargs):
        """One operation: a pipeline stage, an estimator call or a CLI
        command."""
        self.ops += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            raise OperationFailed(f"{getattr(fn, '__name__', fn)}: "
                                  f"{exc!r}") from exc

    def cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.call(cli.main, argv)
        if code != 0:
            raise OperationFailed(f"noisyrec {argv[0]} exited {code}")


def soft_label_imputation(inst) -> np.ndarray:
    """Squared error against the mean observed rating as a soft label."""
    o = inst.observed_mask
    r_bar = float((o * inst.observed_ratings).sum() / o.sum())
    r_hat = inst.prediction.r_hat
    return r_bar * (r_hat - 1.0) ** 2 + (1.0 - r_bar) * r_hat ** 2


def learnable_scores(rng, n_users, n_items):
    """User and item offsets plus a rank-3 term plus noise, so that a
    factor model can recover most of the quantile order."""
    return (1.5 * rng.normal(size=(n_users, 1))
            + 1.5 * rng.normal(size=(1, n_items))
            + rng.normal(size=(n_users, 3)) @ rng.normal(size=(3, n_items))
            / np.sqrt(3)
            + 0.5 * rng.normal(size=(n_users, n_items)))


# ---------------------------------------------------------------------------
# train_ome_500
# ---------------------------------------------------------------------------

class TrainOme:
    ops_per_round = 6
    auc_floor = 0.62  # about 0.73 on this generator; a model that learns
                      # nothing scores 0.5

    n = 500
    batch = 8192
    check_rows = 256

    def __init__(self, seed):
        self.seed = seed
        self.prop_cfg = models.SgdConfig(
            learning_rate=0.5, batch_size=0, weight_decay=0.0, max_epochs=100,
            seed=seed)
        self.pre_cfg = models.SgdConfig(
            learning_rate=1.0, batch_size=self.batch, weight_decay=1e-3,
            max_epochs=10, seed=seed)
        self.alt_cfg = training.AltTrainConfig(
            rho_init=ErrorParams(0.0, 0.0), steps_prediction=10,
            steps_imputation=10, outer_loops=10, embedding_dim=8,
            k_extreme=self.n * self.n // 1000,
            sgd_prediction=models.SgdConfig(
                learning_rate=1.0, batch_size=self.batch, weight_decay=1e-5,
                seed=seed),
            sgd_imputation=models.SgdConfig(
                learning_rate=0.1, batch_size=self.batch, weight_decay=1e-5,
                seed=seed))

    def prepare(self):
        rng = np.random.default_rng([self.seed, 500])
        spec = synthbench.BenchmarkSpec(self.n, self.n, 0.2, 0.1,
                                        pred_kind="ROTATE", alpha=0.5,
                                        seed=self.seed)
        inst = synthbench.sample_instance(
            spec, score_matrix=learnable_scores(rng, self.n, self.n))
        return inst, inst.to_dataset()

    def work(self, inputs) -> int:
        """Rows through SGD steps: full-batch propensity epochs, pretraining
        epochs, and the two samplers of the alternating loop."""
        _, dataset = inputs
        cells = self.n * self.n
        cfg = self.alt_cfg
        per_loop = (cfg.steps_prediction * min(self.batch, cells)
                    + cfg.steps_imputation * min(self.batch,
                                                 dataset.n_observed))
        return (self.prop_cfg.max_epochs * cells
                + self.pre_cfg.max_epochs * cells
                + cfg.outer_loops * per_loop)

    def round(self, inputs, ctx: RoundContext):
        inst, dataset = inputs
        prop = ctx.call(models.train_propensity, dataset, self.prop_cfg)
        p_hat = prop.export().p_hat
        noisy = ctx.call(training.pretrain_noisy_model, dataset, "ips",
                         self.pre_cfg, 8, p_hat=p_hat)
        model, imp, trace = ctx.call(training.alternating_denoise_train,
                                     dataset, p_hat, noisy, self.alt_cfg)
        pred = model.predict_all()
        truth = inst.true_ratings
        auc = ctx.call(metrics.auc, pred.ravel(), truth.ravel())
        ndcg = ctx.call(metrics.ndcg_at_k, pred, truth, 5)
        recall = ctx.call(metrics.recall_at_k, pred, truth, 5)
        if ctx.checking:
            ctx.check(self.check, dataset, p_hat, model, imp, trace, pred, auc)
        last = trace.records[-1]
        return (auc, ndcg, recall, last.rho01_hat, last.rho10_hat,
                float(pred.sum()))

    def check(self, dataset, p_hat, model, imp, trace, pred, auc):
        checks.check_predictions(pred)
        checks.check_trace(trace.records, self.alt_cfg.outer_loops)
        checks.check_auc_floor(auc, self.auc_floor)

        rng = np.random.default_rng([self.seed, 501])
        last = trace.records[-1]
        rho = ErrorParams(last.rho01_hat, last.rho10_hat)
        n_users, n_items = dataset.shape

        # prediction steps sample the whole universe, observed or not
        cells = rng.choice(n_users * n_items, size=self.check_rows,
                           replace=False)
        u, i = np.divmod(cells, n_items)
        o, r, p = _batch(dataset, p_hat, u, i)
        coef = rng.normal(size=u.shape[0])
        got = _kernels.factor_backward(u, i, model.user_emb, model.item_emb,
                                       coef)
        want = checks.ref_factor_backward(u, i, model.user_emb,
                                          model.item_emb, coef)
        for name, g, w in zip(("user_emb", "item_emb", "user_bias",
                               "item_bias", "global_bias"), got, want):
            checks.check_close(f"factor_backward.{name}", g, w, rtol=1e-10,
                               atol=1e-15)

        cfg = self.alt_cfg.sgd_prediction
        e_bar = imp.scores(u, i)
        stepped = models.sgd_step_surrogate(
            model.copy(), u, i, o, r, p, e_bar, rho, SQUARED, cfg,
            models.Optimizer(cfg))
        want = checks.ref_prediction_step(
            _params(model), u, i, o, r, p, rho.rho01, rho.rho10,
            cfg.learning_rate, cfg.weight_decay)
        checks.check_params("prediction step", _params(stepped), want)

        # imputation steps sample the observed set
        obs_u, obs_i = dataset.observed_pairs()
        pick = rng.choice(obs_u.shape[0], size=self.check_rows, replace=False)
        u, i = obs_u[pick], obs_i[pick]
        o, r, p = _batch(dataset, p_hat, u, i)
        cfg = self.alt_cfg.sgd_imputation
        pred_b = model.forward(u, i)
        stepped = models.sgd_step_imputation(
            imp.copy(), u, i, o, r, p, pred_b, rho, SQUARED, cfg,
            models.Optimizer(cfg))
        want = checks.ref_imputation_step(
            _params(imp), u, i, o, r, p, pred_b, rho.rho01, rho.rho10,
            cfg.learning_rate, cfg.weight_decay)
        checks.check_params("imputation step", _params(stepped), want)


def _batch(dataset, p_hat, u, i):
    return (dataset.observed_mask[u, i].astype(np.float64),
            dataset.observed_ratings[u, i].astype(np.float64), p_hat[u, i])


def _params(model) -> dict:
    return {"user_emb": model.user_emb, "item_emb": model.item_emb,
            "user_bias": model.user_bias, "item_bias": model.item_bias,
            "global_bias": model.global_bias}


# ---------------------------------------------------------------------------
# estimate_2000
# ---------------------------------------------------------------------------

class Estimate:
    kinds = ("ROTATE", "SKEW", "ONE")
    # sample_instance, identify_error_params, true_inaccuracy, seven
    # estimators, bias_ome_dr_oracle, monte_carlo_ome_dr
    ops_per_kind = 12
    full_universe_calls = 11  # every operation above but the Monte Carlo

    def __init__(self, seed, n=2000, grid=40, n_reps=12000):
        self.seed = seed
        self.n = n
        self.grid = grid
        self.n_reps = n_reps
        self.ops_per_round = self.ops_per_kind * len(self.kinds)

    def prepare(self):
        return [synthbench.BenchmarkSpec(
                    self.n, self.n, 0.2, 0.1, pred_kind=kind, alpha=0.5,
                    seed=self.seed * len(self.kinds) + k)
                for k, kind in enumerate(self.kinds)]

    def work(self, inputs) -> int:
        """Per-cell evaluations of the full-universe calls plus Monte-Carlo
        cell draws."""
        per_kind = (self.full_universe_calls * self.n * self.n
                    + self.n_reps * self.grid * self.grid)
        return per_kind * len(inputs)

    def round(self, specs, ctx: RoundContext):
        summary = []
        for k, spec in enumerate(specs):
            summary.append(self._one_kind(spec, k, ctx))
        return tuple(summary)

    def _one_kind(self, spec, k, ctx):
        inst = ctx.call(synthbench.sample_instance, spec)
        dataset = inst.to_dataset()
        rho = spec.rho
        q = noise.NoisyRateModel(rho.denom * inst.gamma + rho.rho10)
        rho_hat = ctx.call(noise.identify_error_params, q,
                           k_extreme=self.n * self.n // 1000)
        p_hat = PropensityMatrix(inst.p_hat, spec.propensity_floor)
        p_true = PropensityMatrix(inst.p_true, spec.propensity_floor)
        e_bar = ImputationMatrix(soft_label_imputation(inst))
        inputs = estimators.EstimatorInputs(dataset, inst.prediction, SQUARED,
                                            p_hat, e_bar, rho_hat)
        got = {"true": ctx.call(estimators.true_inaccuracy, inst.prediction,
                                inst.true_ratings, SQUARED)}
        for name, fn in estimators.ESTIMATORS.items():
            got[name] = ctx.call(fn, inputs)
        got["oracle"] = ctx.call(estimators.bias_ome_dr_oracle,
                                 inst.true_ratings, inst.prediction, p_true,
                                 p_hat, e_bar, rho, rho_hat, SQUARED)
        g = slice(0, self.grid)
        sub = (inst.true_ratings[g, g],
               PredictionMatrix(inst.prediction.r_hat[g, g]),
               PropensityMatrix(inst.p_true[g, g], spec.propensity_floor),
               PropensityMatrix(inst.p_hat[g, g], spec.propensity_floor),
               ImputationMatrix(e_bar.e_bar[g, g]))
        reps = ctx.call(estimators.monte_carlo_ome_dr, *sub, rho, rho_hat,
                        SQUARED, self.n_reps, self.seed * 7 + k)
        if ctx.checking:
            ctx.check(self.check, inst, e_bar, rho, rho_hat, got, sub, reps)
        return (*got.values(), rho_hat.rho01, rho_hat.rho10,
                float(reps.mean()))

    def check(self, inst, e_bar, rho, rho_hat, got, sub, reps):
        rho_t = (rho.rho01, rho.rho10)
        rho_h = (rho_hat.rho01, rho_hat.rho10)
        want = checks.ref_estimates(
            inst.prediction.r_hat, inst.observed_mask, inst.observed_ratings,
            inst.p_hat, e_bar.e_bar, rho_h)
        true, bias = checks.ref_truth_and_bias(
            inst.prediction.r_hat, inst.true_ratings, inst.p_hat, inst.p_true,
            e_bar.e_bar, rho_t, rho_h)
        checks.check_estimates(got, want, true, bias)
        p_true = PropensityMatrix(inst.p_true, inst.spec.propensity_floor)
        checks.check_oracle_zero(estimators.bias_ome_dr_oracle(
            inst.true_ratings, inst.prediction, p_true, p_true, e_bar, rho,
            rho, SQUARED))
        checks.check_identified(rho_h, rho_t, float(inst.gamma.min()),
                                float(inst.gamma.max()))
        r_true, pred, pt, ph, eb = sub
        true, bias = checks.ref_truth_and_bias(
            pred.r_hat, r_true, ph.p_hat, pt.p_hat, eb.e_bar, rho_t, rho_h)
        checks.check_monte_carlo(reps, true, bias)


# ---------------------------------------------------------------------------
# cli_roundtrip
# ---------------------------------------------------------------------------

class CliRoundtrip:
    ops_per_round = 3
    estimator_names = ["naive", "eib", "ips", "dr", "ome_eib", "ome_ips",
                       "ome_dr"]
    propensities = ("true", "perturbed")

    def __init__(self, seed, out_dir: Path, n=600):
        self.seed = seed
        self.n = n
        self.dir = out_dir / f"cli_roundtrip-{seed}"
        self.spec = synthbench.BenchmarkSpec(
            n, n, 0.2, 0.1, pred_kind="SKEW", alpha=0.5, seed=seed)

    def prepare(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        spec_path = self.dir / "spec.cfg"
        spec_path.write_text(
            f"n_users = {self.n}\nn_items = {self.n}\nrho01 = 0.2\n"
            "rho10 = 0.1\npred_kind = SKEW\nalpha = 0.5\n")
        return spec_path

    def work(self, inputs) -> int:
        """Instance bytes written once and read twice, counted as the
        in-memory payload of its matrices (four float64, three int8), so the
        count does not depend on the file format."""
        return 3 * self.n * self.n * (4 * 8 + 3 * 1)

    def round(self, spec_path, ctx: RoundContext):
        inst_dir = self.dir / "instance"
        with ctx.paused():
            shutil.rmtree(inst_dir, ignore_errors=True)
        ctx.cli(["synth", "--spec", str(spec_path), "--out", str(inst_dir),
                 "--seed", str(self.seed)])
        reports = {}
        for prop in self.propensities:
            reports[prop] = self.dir / f"report-{prop}.csv"
            ctx.cli(["estimate", "--instance", str(inst_dir),
                     "--estimators", ",".join(self.estimator_names),
                     "--propensities", prop, "--out", str(reports[prop])])
        if ctx.checking:
            ctx.check(self.check, inst_dir, reports)
        return tuple(path.read_text() for path in reports.values())

    def check(self, inst_dir, reports):
        expected = synthbench.sample_instance(self.spec)
        checks.check_instances_equal(synthbench.load_instance(inst_dir),
                                     expected)
        dataset = expected.to_dataset()
        e_bar = ImputationMatrix(soft_label_imputation(expected))
        target = estimators.true_inaccuracy(expected.prediction,
                                            expected.true_ratings, SQUARED)
        for prop, path in reports.items():
            p_arr = expected.p_true if prop == "true" else expected.p_hat
            floor = min(float(p_arr.min()), self.spec.propensity_floor)
            inputs = estimators.EstimatorInputs(
                dataset, expected.prediction, SQUARED,
                PropensityMatrix(p_arr, floor), e_bar, self.spec.rho)
            want = {}
            for name in self.estimator_names:
                value = estimators.ESTIMATORS[name](inputs)
                want[name] = (value, target, abs(target - value) / target)
            got_hash, got = checks.read_report(path)
            checks.check_report_values(got, want)
            checks.check_manifest(got_hash, self.spec, self.estimator_names,
                                  "true")

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)
