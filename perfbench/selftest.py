"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Runs one round of each workload with its checks on the program's real
outputs (the training round at full size, the others on small instances),
which must pass. Then it feeds every check a wrong value, either by
corrupting an argument or by wrapping the program function that the check
calls so that it returns a nudged result, and requires that check to reject
it. Finally it compares the metric names in BENCHMARK.json with the ones the
benchmark reports. Exits 1 if anything does not hold.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import json
import sys
from pathlib import Path

import run  # fixes the BLAS threads before numpy loads

run.import_package()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from noisyrec import _kernels, estimators, models, synthbench  # noqa: E402

FAILURES: list[str] = []


def expect_pass(label, fn, *args):
    try:
        fn(*args)
    except checks.CheckFailed as exc:
        FAILURES.append(f"{label}: rejected a right value: {exc}")
        print(f"FAIL  {label}: {exc}")
        return
    print(f"ok    {label}")


def expect_reject(label, expected_text, fn, *args):
    """The check must raise, and its message must name what was wrong."""
    try:
        fn(*args)
    except checks.CheckFailed as exc:
        if expected_text in str(exc):
            print(f"ok    rejects {label}: {exc}")
            return
        FAILURES.append(f"{label}: rejected for another reason: {exc}")
        print(f"FAIL  {label}: rejected for another reason: {exc}")
        return
    FAILURES.append(f"{label}: wrong value accepted")
    print(f"FAIL  {label}: wrong value accepted")


@contextlib.contextmanager
def patched(module, name, nudge):
    """Replace module.name by a call of the original whose result goes
    through nudge."""
    orig = getattr(module, name)
    setattr(module, name, lambda *a, **k: nudge(orig(*a, **k), *a))
    try:
        yield
    finally:
        setattr(module, name, orig)


def captured_round(wl):
    """Run one round and return the argument tuples of its check calls."""
    calls = []
    wl.check = lambda *args: calls.append(args)
    ctx = workloads.RoundContext(checking=True)
    ctx.start()
    wl.round(wl.prepare(), ctx)
    ctx.stop()
    del wl.check
    return calls


def test_train():
    wl = workloads.TrainOme(seed=0)
    (args,) = captured_round(wl)
    dataset, p_hat, model, imp, trace, pred, auc = args
    expect_pass("train_ome_500 checks on real outputs", wl.check, *args)

    def with_(**changes):
        out = dict(zip(("dataset", "p_hat", "model", "imp", "trace", "pred",
                        "auc"), args))
        out.update(changes)
        return tuple(out.values())

    bad = pred.copy()
    bad[3, 4] = 1.0
    expect_reject("prediction equal to 1", "outside (0, 1)", wl.check,
                  *with_(pred=bad))
    bad[3, 4] = np.nan
    expect_reject("non-finite prediction", "non-finite", wl.check,
                  *with_(pred=bad))
    short = copy.deepcopy(trace)
    short.records.pop()
    expect_reject("trace missing a loop", "records for", wl.check,
                  *with_(trace=short))
    broken = copy.deepcopy(trace)
    broken.records[2] = dataclasses.replace(broken.records[2],
                                            rho01_hat=0.7, rho10_hat=0.3)
    expect_reject("rho01 + rho10 = 1 in the trace", "invalid rho", wl.check,
                  *with_(trace=broken))
    expect_reject("auc below the floor", "below floor", wl.check,
                  *with_(auc=wl.auc_floor - 1e-3))

    def nudge_backward(result, *call):
        g_ue, g_ie, g_ub, g_ib, g_b0 = result
        g_ie = g_ie.copy()
        g_ie[call[1][0], 0] += 1e-7
        return g_ue, g_ie, g_ub, g_ib, g_b0

    with patched(_kernels, "factor_backward", nudge_backward):
        expect_reject("factor_backward off by 1e-7", "factor_backward",
                      wl.check, *args)

    def nudge_step(stepped, *call):
        stepped.user_bias[call[1][0]] += 1e-9
        return stepped

    with patched(models, "sgd_step_surrogate", nudge_step):
        expect_reject("prediction step off by 1e-9", "prediction step",
                      wl.check, *args)
    with patched(models, "sgd_step_imputation", nudge_step):
        expect_reject("imputation step off by 1e-9", "imputation step",
                      wl.check, *args)


def test_estimate():
    wl = workloads.Estimate(seed=0, n=200, grid=20, n_reps=4000)
    calls = captured_round(wl)
    for args in calls:
        expect_pass(f"estimate checks on real outputs "
                    f"({args[0].spec.pred_kind}, 200x200)", wl.check, *args)
    inst, e_bar, rho, rho_hat, got, sub, reps = calls[-1]
    for key in got:
        bad = dict(got, **{key: got[key] * (1.0 + 1e-7)})
        label = "bias_ome_dr_oracle" if key == "oracle" else (
            "true_inaccuracy" if key == "true" else f"estimate {key}")
        expect_reject(f"{label} off by 1e-7 relative", label, wl.check,
                      inst, e_bar, rho, rho_hat, bad, sub, reps)

    with patched(estimators, "bias_ome_dr_oracle",
                 lambda value, *call: value + 1e-9):
        expect_reject("oracle at the true parameters off by 1e-9",
                      "is not 0", wl.check, *calls[-1])

    gamma = (float(inst.gamma.min()), float(inst.gamma.max()))
    rho_t, rho_h = (rho.rho01, rho.rho10), (rho_hat.rho01, rho_hat.rho10)
    expect_pass("identified rho on real outputs", checks.check_identified,
                rho_h, rho_t, *gamma)
    expect_reject("identified rho10 off by 1e-9", "identified rho10",
                  checks.check_identified, (rho_h[0], rho_h[1] + 1e-9),
                  rho_t, *gamma)
    expect_reject("identified rho01 off by 1e-9", "identified rho01",
                  checks.check_identified, (rho_h[0] - 1e-9, rho_h[1]),
                  rho_t, *gamma)

    se = reps.std(ddof=1) / np.sqrt(reps.shape[0])
    expect_reject("Monte-Carlo mean shifted by 12 SE", "monte carlo",
                  wl.check, inst, e_bar, rho, rho_hat, got, sub,
                  reps + 12 * se)


def test_cli(out_dir: Path):
    wl = workloads.CliRoundtrip(seed=0, out_dir=out_dir, n=40)
    try:
        (args,) = captured_round(wl)
        inst_dir, reports = args
        expect_pass("cli_roundtrip checks on real outputs", wl.check, *args)

        def nudge_instance(inst, *call):
            inst.p_hat[0, 0] = np.nextafter(inst.p_hat[0, 0], 1.0)
            return inst

        with patched(synthbench, "load_instance", nudge_instance):
            expect_reject("loaded p_hat one ulp off", "loaded p_hat",
                          wl.check, *args)

        def nudge_spec(inst, *call):
            return dataclasses.replace(
                inst, spec=dataclasses.replace(inst.spec, seed=99))

        with patched(synthbench, "load_instance", nudge_spec):
            expect_reject("loaded spec with another seed", "loaded spec",
                          wl.check, *args)

        lines = reports["true"].read_text().splitlines()
        bad_value = list(lines)
        fields = bad_value[3].split(",")
        fields[1] = f"{float(fields[1]) * (1.0 + 1e-7):.10g}"
        bad_value[3] = ",".join(fields)
        bad_hash = list(lines)
        bad_hash[0] = bad_hash[0][:-1] + ("0" if lines[0][-1] != "0" else "1")
        for label, text, content in (
                ("report value off in the 8th digit", "report", bad_value),
                ("manifest hash changed", "manifest", bad_hash)):
            bad_reports = dict(reports)
            bad_reports["true"] = wl.dir / "report-corrupt.csv"
            bad_reports["true"].write_text("\n".join(content) + "\n")
            expect_reject(label, text, wl.check, inst_dir, bad_reports)
        spec = wl.spec
        got_hash = lines[0][len("# manifest="):]
        expect_reject("manifest of another rho mode", "manifest",
                      checks.check_manifest, got_hash, spec,
                      wl.estimator_names, "estimated")
    finally:
        wl.cleanup()


def test_metric_names():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    if listed != tracer.metric_names():
        FAILURES.append("BENCHMARK.json per_layer differs from the tracer")
        print("FAIL  BENCHMARK.json per_layer differs from the tracer")
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    want = {"wall_s": "s", "work_per_s": "work/s", "setup_s": "s",
            "peak_rss_mb": "MB"}
    if e2e != want:
        FAILURES.append(f"BENCHMARK.json end_to_end {e2e} != {want}")
        print(f"FAIL  BENCHMARK.json end_to_end {e2e}")
    names = [w["name"] for w in bench["workloads"]]
    if names != list(run.WORKLOAD_NAMES):
        FAILURES.append(f"BENCHMARK.json workloads {names}")
        print(f"FAIL  BENCHMARK.json workloads {names}")
    print("ok    BENCHMARK.json metric and workload names")


def main() -> int:
    test_metric_names()
    test_cli(run.OUT_DIR / "selftest")
    test_estimate()
    test_train()
    if FAILURES:
        print(f"{len(FAILURES)} self-test failures", file=sys.stderr)
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
