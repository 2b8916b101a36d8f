import csv
import json
from pathlib import Path

import numpy as np
import pytest

from noisyrec.cli import main, parse_config_file
from noisyrec.data import ValidationError


def write_spec(path, **overrides):
    base = {
        "n_users": 20, "n_items": 25, "rho01": 0.2, "rho10": 0.1,
        "pred_kind": "ROTATE", "alpha": 0.5, "seed": 3,
    }
    base.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return path


def read_report(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# manifest=")
    rows = list(csv.reader(lines[1:]))
    return lines[0], rows[0], rows[1:]


class TestConfigParsing:
    def test_nested_keys_and_comments(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("a = 1  # trailing comment\nsgd.learning_rate = 0.5\n"
                       "\n# full comment\nsgd.seed = 3\n")
        parsed = parse_config_file(cfg)
        assert parsed == {"a": "1",
                          "sgd": {"learning_rate": "0.5", "seed": "3"}}

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("just words\n")
        with pytest.raises(ValidationError, match=":1"):
            parse_config_file(cfg)

    def test_field_of_a_value_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("sgd = 3\nsgd.seed = 1\n")
        with pytest.raises(ValidationError, match=":2: 'sgd' is a value"):
            parse_config_file(cfg)


class TestSynth:
    def test_generates_instance_files(self, tmp_path):
        spec = write_spec(tmp_path / "spec.cfg")
        out = tmp_path / "inst"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        for fname in ("gamma.csv", "pred.csv", "p_true.csv", "p_hat.csv",
                      "o.csv", "r_true.csv", "r_obs.csv", "manifest.json"):
            assert (out / fname).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_users"] == 20

    def test_rerun_byte_identical(self, tmp_path):
        spec = write_spec(tmp_path / "spec.cfg")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["synth", "--spec", str(spec), "--out", str(out1)])
        main(["synth", "--spec", str(spec), "--out", str(out2)])
        for f in sorted(out1.iterdir()):
            assert f.read_bytes() == (out2 / f.name).read_bytes()

    def test_seed_override_changes_data(self, tmp_path):
        spec = write_spec(tmp_path / "spec.cfg")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["synth", "--spec", str(spec), "--out", str(out1)])
        main(["synth", "--spec", str(spec), "--out", str(out2),
              "--seed", "99"])
        assert (out1 / "o.csv").read_bytes() != (out2 / "o.csv").read_bytes()

    def test_invalid_spec_exit_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.cfg", rho01=0.7, rho10=0.5)
        code = main(["synth", "--spec", str(spec),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_nan_score_exit_2(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("0.1,nan,0.3\n0.4,0.5,0.6\n")
        spec = write_spec(tmp_path / "spec.cfg", n_users=2, n_items=3,
                          scores=scores)
        out = tmp_path / "x"
        code = main(["synth", "--spec", str(spec), "--out", str(out)])
        assert code == 2
        assert "NaN" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("n_users", "abc"), ("n_items", "2.5"), ("rho01", "x"),
        ("gamma_proportions", "0.5,a")])
    def test_malformed_number_exit_2(self, tmp_path, capsys, field, value):
        spec = write_spec(tmp_path / "spec.cfg", **{field: value})
        code = main(["synth", "--spec", str(spec),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"{field}: cannot read {value!r}" in capsys.readouterr().err


@pytest.fixture
def instance_dir(tmp_path):
    spec = write_spec(tmp_path / "spec.cfg")
    out = tmp_path / "inst"
    main(["synth", "--spec", str(spec), "--out", str(out)])
    return out


class TestEstimate:
    def test_report_values_and_degeneration(self, instance_dir, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["estimate", "--instance", str(instance_dir),
                     "--estimators", "naive,ome_ips,ome_dr",
                     "--rho-mode", "true", "--propensities", "true",
                     "--out", str(out)])
        assert code == 0
        _, header, rows = read_report(out)
        assert header == ["estimator", "value", "target", "relative_error"]
        values = {r[0]: r for r in rows}
        assert set(values) == {"naive", "ome_ips", "ome_dr"}
        for r in rows:
            assert r[1] != "error"
            assert float(r[3]) >= 0.0

    def test_rho_given_mode(self, instance_dir, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["estimate", "--instance", str(instance_dir),
                     "--estimators", "ome_dr", "--rho-mode", "given",
                     "--rho", "0.15,0.05", "--out", str(out)])
        assert code == 0

    def test_rho_given_requires_value(self, instance_dir, tmp_path):
        code = main(["estimate", "--instance", str(instance_dir),
                     "--rho-mode", "given",
                     "--out", str(tmp_path / "r.csv")])
        assert code == 2

    @pytest.mark.parametrize("rho", ["0.1", "a,b", "0.1,0.1,0.1"])
    def test_malformed_rho_exit_2(self, instance_dir, tmp_path, capsys, rho):
        out = tmp_path / "r.csv"
        code = main(["estimate", "--instance", str(instance_dir),
                     "--rho-mode", "given", "--rho", rho, "--out", str(out)])
        assert code == 2
        assert "--rho" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_instance_exit_2(self, tmp_path):
        code = main(["estimate", "--instance", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "r.csv")])
        assert code == 2

    @pytest.mark.parametrize("rho_mode", ["true", "estimated"])
    @pytest.mark.parametrize("bad", [0.0, float("nan")])
    def test_zero_or_nan_propensity_exit_2(self, instance_dir, tmp_path,
                                           capsys, bad, rho_mode):
        path = instance_dir / "p_hat.csv"
        p = np.loadtxt(path, delimiter=",", ndmin=2)
        p[3, 4] = bad
        np.savetxt(path, p, fmt="%.17g", delimiter=",")
        out = tmp_path / "report.csv"
        code = main(["estimate", "--instance", str(instance_dir),
                     "--estimators", "naive,ips,ome_dr", "--rho-mode", rho_mode,
                     "--propensities", "perturbed", "--out", str(out)])
        assert code == 2
        assert "propensities must lie in (0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_prediction_exit_2(self, instance_dir, tmp_path, capsys):
        path = instance_dir / "pred.csv"
        r = np.loadtxt(path, delimiter=",", ndmin=2)
        r[2, 5] = np.nan
        np.savetxt(path, r, fmt="%.17g", delimiter=",")
        out = tmp_path / "report.csv"
        code = main(["estimate", "--instance", str(instance_dir),
                     "--out", str(out)])
        assert code == 2
        assert ("predictions must lie strictly inside (0, 1)"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_unknown_estimator_row_level_error(self, instance_dir, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["estimate", "--instance", str(instance_dir),
                     "--estimators", "naive,snips", "--rho-mode", "true",
                     "--out", str(out)])
        assert code == 0
        _, _, rows = read_report(out)
        by_name = {r[0]: r for r in rows}
        assert by_name["naive"][1] != "error"
        assert by_name["snips"][1] == "error"

    def test_missing_propensities_row_level_error(self, instance_dir,
                                                  tmp_path):
        (instance_dir / "p_hat.csv").unlink()
        out = tmp_path / "report.csv"
        code = main(["estimate", "--instance", str(instance_dir),
                     "--estimators", "naive,ips,ome_dr", "--rho-mode", "true",
                     "--propensities", "perturbed", "--out", str(out)])
        assert code == 0
        _, _, rows = read_report(out)
        by_name = {r[0]: r for r in rows}
        assert by_name["naive"][1] != "error"
        assert by_name["ips"][1] == "error"
        assert by_name["ome_dr"][1] == "error"


class TestTrain:
    def test_naive_training_smoke(self, instance_dir, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--data", str(instance_dir),
                     "--method", "naive", "--out", str(out)])
        assert code == 0
        assert (out / "checkpoint.npz").exists()
        _, header, rows = read_report(out / "eval.csv")
        assert header == ["metric", "value"]
        metrics = {r[0]: float(r[1]) for r in rows}
        assert set(metrics) == {"auc", "ndcg@5", "recall@5"}
        assert 0.0 <= metrics["auc"] <= 1.0

    def test_alternating_training_writes_trace(self, instance_dir, tmp_path):
        out = tmp_path / "run"
        cfg = tmp_path / "train.cfg"
        cfg.write_text("outer_loops = 3\nsgd.max_epochs = 5\n"
                       "propensity_epochs = 20\n")
        code = main(["train", "--data", str(instance_dir),
                     "--method", "ome_alt", "--config", str(cfg),
                     "--out", str(out)])
        assert code == 0
        assert (out / "checkpoint.npz").exists()
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["loop", "rho01_hat", "rho10_hat", "objective",
                           "val_metric", "rho_clamped"]
        assert len(rows) == 4
        assert all(row[5] in ("0", "1") for row in rows[1:])

    def test_k_extreme_option(self, instance_dir, tmp_path):
        # the default is 1, so an explicit 1 writes the same trace
        traces = []
        for line in ("", "k_extreme = 1\n", "k_extreme = 10\n"):
            cfg = tmp_path / "train.cfg"
            cfg.write_text("outer_loops = 2\nsgd.max_epochs = 3\n"
                           "propensity_epochs = 10\n" + line)
            out = tmp_path / f"run{len(traces)}"
            code = main(["train", "--data", str(instance_dir),
                         "--method", "ome_alt", "--config", str(cfg),
                         "--out", str(out)])
            assert code == 0
            traces.append((out / "trace.csv").read_bytes())
        assert traces[1] == traces[0]

    @pytest.mark.parametrize("k", [0, 251])
    def test_k_extreme_out_of_range_exit_2(self, instance_dir, tmp_path,
                                           capsys, k):
        # the 20 x 25 instance has 500 pairs, so k_extreme may be 1..250
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"k_extreme = {k}\n")
        out = tmp_path / "run"
        code = main(["train", "--data", str(instance_dir),
                     "--method", "ome_alt", "--config", str(cfg),
                     "--out", str(out)])
        assert code == 2
        assert "k_extreme must be in [1, n_pairs/2]" in capsys.readouterr().err
        assert not out.exists()  # rejected before any training

    @pytest.mark.parametrize("method, rate, message", [
        ("naive", "1e308", "noisy-rate pretraining diverged"),
        ("ome_alt", "1e5", "non-finite gradient in imputation step")])
    def test_divergence_exit_3(self, instance_dir, tmp_path, capsys, method,
                               rate, message):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"sgd.learning_rate = {rate}\nsgd.max_epochs = 3\n"
                       "outer_loops = 2\npropensity_epochs = 5\n")
        with np.errstate(all="ignore"):
            code = main(["train", "--data", str(instance_dir),
                         "--method", method, "--config", str(cfg),
                         "--out", str(tmp_path / "run")])
        assert code == 3
        assert message in capsys.readouterr().err

    def test_train_from_triples_file(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = []
        for u in range(15):
            for i in range(15):
                if rng.random() < 0.6:
                    lines.append(f"{u}\t{i}\t{int(rng.random() < 0.5)}")
        triples = tmp_path / "data.tsv"
        triples.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        cfg = tmp_path / "train.cfg"
        cfg.write_text("sgd.max_epochs = 3\npropensity_epochs = 10\nk = 3\n")
        code = main(["train", "--data", str(triples), "--method", "ips",
                     "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "eval.csv").exists()

    @pytest.mark.parametrize("key", ["learning_rate", "weight_decay"])
    def test_nan_sgd_option_exit_2(self, instance_dir, tmp_path, key):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"sgd.{key} = nan\n")
        code = main(["train", "--data", str(instance_dir), "--method", "naive",
                     "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 2


    def test_unknown_sgd_option_exit_2(self, instance_dir, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("sgd.patience = 3\n")
        code = main(["train", "--data", str(instance_dir), "--method", "naive",
                     "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 2
        assert "unknown sgd option 'patience'" in capsys.readouterr().err

    @pytest.mark.parametrize("line, key", [
        ("sgd.batch_size = abc", "sgd.batch_size"),
        ("sgd.max_epochs = 2.5", "sgd.max_epochs"),
        ("outer_loops = 2.5", "outer_loops"),
        ("rho_init = 0.1", "rho_init"),
        ("k = five", "k"),
        ("k.top = 3", "k"),
        ("sgd = 3", "sgd")])
    def test_malformed_option_exit_2(self, instance_dir, tmp_path, capsys,
                                     line, key):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"{line}\npropensity_epochs = 1\n")
        code = main(["train", "--data", str(instance_dir),
                     "--method", "ome_alt", "--config", str(cfg),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert key in capsys.readouterr().err

    def test_unknown_option_exit_2(self, instance_dir, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("top_k = 3\n")
        out = tmp_path / "run"
        code = main(["train", "--data", str(instance_dir), "--method", "naive",
                     "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "unknown train option 'top_k'" in capsys.readouterr().err
        assert not out.exists()


class TestIngest:
    def test_binarization_threshold(self, tmp_path):
        raw = tmp_path / "raw.tsv"
        raw.write_text("0\t0\t5\n0\t1\t2.5\n1\t0\t3\n1\t1\t1\n")
        out = tmp_path / "binary.tsv"
        assert main(["ingest", "--triples", str(raw), "--threshold", "3.0",
                     "--out", str(out)]) == 0
        rows = sorted(tuple(line.split("\t"))
                      for line in out.read_text().splitlines())
        assert rows == [("0", "0", "1"), ("0", "1", "0"),
                        ("1", "0", "1"), ("1", "1", "0")]

    def test_empty_file_exit_2(self, tmp_path):
        raw = tmp_path / "raw.tsv"
        raw.write_text("")
        assert main(["ingest", "--triples", str(raw),
                     "--out", str(tmp_path / "o.tsv")]) == 2


    def test_negative_index_exit_2(self, tmp_path):
        raw = tmp_path / "raw.tsv"
        raw.write_text("-1 2 0\n0 0 1\n1 1 1\n")
        out = tmp_path / "o.tsv"
        assert main(["ingest", "--triples", str(raw), "--threshold", "0.5",
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_duplicate_pair_exit_2(self, tmp_path, capsys):
        raw = tmp_path / "raw.tsv"
        raw.write_text("0 0 5\n0 0 1\n1 1 4\n")
        out = tmp_path / "o.tsv"
        assert main(["ingest", "--triples", str(raw), "--threshold", "3",
                     "--out", str(out)]) == 2
        assert "duplicate pair (user 0, item 0)" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("rating", ["nan", "inf", "-inf"])
    def test_non_finite_rating_exit_2(self, tmp_path, capsys, rating):
        raw = tmp_path / "raw.tsv"
        raw.write_text(f"0 0 5\n1 1 {rating}\n")
        out = tmp_path / "o.tsv"
        assert main(["ingest", "--triples", str(raw), "--threshold", "3",
                     "--out", str(out)]) == 2
        assert (f"line 2: rating {rating} is not finite"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_exit_2(self, tmp_path, capsys, threshold):
        raw = tmp_path / "raw.tsv"
        raw.write_text("0 0 5\n1 1 1\n")
        out = tmp_path / "o.tsv"
        assert main(["ingest", "--triples", str(raw), "--threshold",
                     threshold, "--out", str(out)]) == 2
        assert "--threshold must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def test_sweep_report(self, tmp_path):
        spec = write_spec(tmp_path / "spec.cfg")
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--spec", str(spec), "--n-seeds", "3",
                     "--estimators", "naive,ome_dr", "--propensities", "true",
                     "--out", str(out)])
        assert code == 0
        _, header, rows = read_report(out)
        assert header == ["seed", "estimator", "value", "target",
                          "relative_error"]
        assert len(rows) == 6
        assert sorted({r[0] for r in rows}) == ["0", "1", "2"]

    def test_parallel_matches_serial(self, tmp_path):
        spec = write_spec(tmp_path / "spec.cfg")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--spec", str(spec), "--n-seeds", "3",
              "--propensities", "true", "--out", str(out1)])
        main(["sweep", "--spec", str(spec), "--n-seeds", "3",
              "--propensities", "true", "--jobs", "2", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_unknown_estimator_row_matches_estimate(self, tmp_path):
        spec = write_spec(tmp_path / "spec.cfg")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--spec", str(spec), "--n-seeds", "1",
                     "--estimators", "naive,snips", "--out", str(out)]) == 0
        _, _, rows = read_report(out)
        assert rows[1] == ["0", "snips", "error", "",
                           "unknown estimator 'snips'"]
