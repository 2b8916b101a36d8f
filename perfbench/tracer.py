"""Spans around calls into noisyrec's public functions, for the traced run.

A traced function is replaced at every place a caller looks it up: the
defining module, every ``noisyrec`` module that bound the name at import
(``training`` binds ``sgd_step_surrogate``, ``cli`` binds the stage
functions), module-level dicts that hold their own references
(``estimators.ESTIMATORS``), and the class for methods. ``uninstall`` puts
the originals back, so untraced rounds run the program unchanged.

Spans are kept in memory as ``[name, start, end, parent, round, count]``
and written out once, when the run ends. A span's self time is its duration
minus the durations of the traced spans directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

# Array fields of a BenchmarkInstance that save_instance writes and
# load_instance reads back; the byte count is their in-memory payload.
INSTANCE_ARRAYS = ("gamma", "p_true", "p_hat", "observed_mask",
                   "true_ratings", "observed_ratings")


def _rows(args, kwargs, result):
    return int(args[0].shape[0])


def _cell_draws(args, kwargs, result):
    n_reps, _seed, p_true = args[:3]
    return int(n_reps) * int(p_true.shape[0])


def instance_bytes(inst) -> int:
    total = inst.prediction.r_hat.nbytes
    for name in INSTANCE_ARRAYS:
        total += getattr(inst, name).nbytes
    return int(total)


def _saved_bytes(args, kwargs, result):
    return instance_bytes(args[1])


def _loaded_bytes(args, kwargs, result):
    return instance_bytes(result)


_ESTIMATOR_NAMES = ("naive", "eib", "ips", "dr", "ome_eib", "ome_ips",
                    "ome_dr")

# (module, attribute, reported fields, counter). Fields: "s" total time,
# "self_s" time minus traced children, "calls", and the counter's field.
TARGETS = (
    ("_kernels", "factor_scores", ("s", "rows"), _rows),
    ("_kernels", "factor_backward", ("s", "rows", "calls"), _rows),
    ("_kernels", "mc_dr_estimates", ("s", "cell_draws"), _cell_draws),
    ("models", "train_propensity", ("s",), None),
    ("models", "sgd_step_surrogate", ("self_s", "calls"), None),
    ("models", "sgd_step_imputation", ("self_s", "calls"), None),
    ("models", "FactorModel.predict_all", ("s", "calls"), None),
    ("models", "surrogate_objective", ("s",), None),
    ("training", "pretrain_noisy_model", ("self_s",), None),
    ("training", "alternating_denoise_train", ("s", "self_s"), None),
    ("noise", "identify_error_params", ("s",), None),
    ("data", "validate_dataset", ("s", "calls"), None),
    ("synthbench", "sample_instance", ("s",), None),
    ("synthbench", "save_instance", ("s", "bytes"), _saved_bytes),
    ("synthbench", "load_instance", ("s", "bytes"), _loaded_bytes),
    *(("estimators", f"estimate_{name}", ("s",), None)
      for name in _ESTIMATOR_NAMES),
    ("estimators", "true_inaccuracy", ("s",), None),
    ("estimators", "bias_ome_dr_oracle", ("s",), None),
    ("estimators", "monte_carlo_ome_dr", ("self_s",), None),
    ("metrics", "auc", ("s",), None),
    ("metrics", "ndcg_at_k", ("s",), None),
    ("metrics", "recall_at_k", ("s",), None),
    ("cli", "cmd_synth", ("self_s",), None),
    ("cli", "cmd_estimate", ("self_s",), None),
)

UNITS = {"s": "s", "self_s": "s", "calls": "count", "rows": "rows",
         "bytes": "bytes", "cell_draws": "draws"}
COUNT_FIELDS = ("calls", "rows", "bytes", "cell_draws")
OVERHEAD_METRIC = "trace.overhead_s"


def span_name(module: str, attr: str) -> str:
    # metric names start with a letter, so "_kernels" reads "kernels"
    return f"{module.lstrip('_')}.{attr}"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = [(f"{span_name(mod, attr)}.{field}", UNITS[field])
           for mod, attr, fields, _ in TARGETS for field in fields]
    out.append((OVERHEAD_METRIC, "s"))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.round = 0
        self.enabled = True
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    tracer.round, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "noisyrec" or key.startswith("noisyrec.")]
        for mod_name, attr, _fields, counter in TARGETS:
            owner = importlib.import_module(f"noisyrec.{mod_name}")
            name = span_name(mod_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig, False))
                setattr(cls, meth, self._wrap(name, orig, counter))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig, False))
                        setattr(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for dkey, dval in list(value.items()):
                            if dval is orig:
                                self._patches.append((value, dkey, orig, True))
                                value[dkey] = wrapper

    def uninstall(self) -> None:
        for container, key, orig, is_dict in reversed(self._patches):
            if is_dict:
                container[key] = orig
            else:
                setattr(container, key, orig)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def round_totals(self) -> dict[int, dict[str, dict[str, float]]]:
        """Per traced round, per span name: s, self_s, calls, count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, rnd, count in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, dict[str, float]]] = {}
        for idx, (name, start, end, parent, rnd, count) in enumerate(
                self.spans):
            tot = out.setdefault(rnd, {}).setdefault(
                name, {"s": 0.0, "self_s": 0.0, "calls": 0, "count": 0})
            tot["s"] += end - start
            tot["self_s"] += end - start - child[idx]
            tot["calls"] += 1
            tot["count"] += count
        return out

    def layer_metrics(self, rounds: list[int]) -> tuple[dict, list[str]]:
        """Median time fields and exact count fields over the traced rounds.

        Returns (metrics, problems); a count that differs between rounds is
        a problem, because the rounds repeat the same operations.
        """
        totals = self.round_totals()
        empty = {"s": 0.0, "self_s": 0.0, "calls": 0, "count": 0}
        metrics, problems = {}, []
        for mod_name, attr, fields, _ in TARGETS:
            name = span_name(mod_name, attr)
            per_round = [totals.get(r, {}).get(name, empty) for r in rounds]
            for field in fields:
                if field in COUNT_FIELDS:
                    key = "calls" if field == "calls" else "count"
                    values = {int(t[key]) for t in per_round}
                    if len(values) != 1:
                        problems.append(
                            f"{name}.{field} differs between rounds: "
                            f"{sorted(values)}")
                    value = max(values)
                else:
                    value = statistics.median(t[field] for t in per_round)
                metrics[f"{name}.{field}"] = {"value": value,
                                              "unit": UNITS[field]}
        return metrics, problems

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, rnd, count) in enumerate(
                    self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "round": rnd,
                                     "start": start, "end": end,
                                     "parent": parent, "count": count}))
                fh.write("\n")
