import csv
import dataclasses
import inspect
import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from noisyrec import cli, data
from noisyrec.cli import main, parse_config_file
from noisyrec.data import (RatingDataset, ValidationError,
                           load_dataset_triples, make_rng)
from noisyrec.losses import LossKind, loss_curves
from noisyrec.models import SgdConfig
from noisyrec.synthbench import BenchmarkSpec, load_instance, sample_instance


DATA = Path(__file__).resolve().parent / "data"


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
        with pytest.raises(ValidationError,
                           match=":2: 'sgd' is a value on line 1,"):
            parse_config_file(cfg)

    @pytest.mark.parametrize("text, key", [
        ("a = 1\nb = 2\na = 3\n", "a"),
        ("sgd.seed = 1\nb = 2\nsgd.seed = 2\n", "sgd.seed"),
        ("rho_init.a = 1\nb = 2\nrho_init = 0.2,0.1\n", "rho_init")],
        ids=["plain", "dotted", "section-then-value"])
    def test_key_given_twice_rejected_naming_both_lines(self, tmp_path, text,
                                                         key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        with pytest.raises(ValidationError) as exc:
            parse_config_file(cfg)
        assert str(exc.value) == f"{cfg}:3: {key!r} is already given on line 1"


class TestSynth:
    def test_generates_instance_files(self, tmp_path):
        spec = write_spec(tmp_path / "spec.cfg")
        out = tmp_path / "inst"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        for fname in ("gamma.npy", "pred.npy", "p_true.npy", "p_hat.npy",
                      "o.npy", "r_true.npy", "r_obs.npy", "manifest.json"):
            assert (out / fname).exists()
        assert not list(out.glob("*.csv"))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_users"] == 20

    def test_rerun_byte_identical(self, tmp_path):
        spec = write_spec(tmp_path / "spec.cfg")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["synth", "--spec", str(spec), "--out", str(out1)])
        main(["synth", "--spec", str(spec), "--out", str(out2)])
        for f in sorted(out1.iterdir()):
            assert f.read_bytes() == (out2 / f.name).read_bytes()

    def test_spec_reloads_with_equal_manifest(self, tmp_path):
        spec = write_spec(tmp_path / "spec.cfg", p_base=1,
                          gamma_proportions="0.1,0.2,0.3,0.2,0.2")
        out = tmp_path / "inst"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        want = cli._instance_from_config(parse_config_file(spec)).spec
        back = load_instance(out).spec
        assert back == want
        assert back.manifest() == want.manifest()
        assert json.loads((out / "manifest.json").read_text()
                          ) == json.loads(json.dumps(back.manifest()))

    def test_seed_override_changes_data(self, tmp_path):
        spec = write_spec(tmp_path / "spec.cfg")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["synth", "--spec", str(spec), "--out", str(out1)])
        main(["synth", "--spec", str(spec), "--out", str(out2),
              "--seed", "99"])
        assert (out1 / "o.npy").read_bytes() != (out2 / "o.npy").read_bytes()

    @pytest.mark.parametrize("source", ["quantile", "supplied"])
    def test_gamma_source_key_exit_2(self, tmp_path, capsys, source):
        # gamma always comes from a score matrix; the key is no spec field
        spec = write_spec(tmp_path / "spec.cfg", gamma_source=source)
        out = tmp_path / "x"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 2
        assert "unknown spec field 'gamma_source'" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_spec_exit_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.cfg", rho01=0.7, rho10=0.5)
        code = main(["synth", "--spec", str(spec),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_repeated_spec_key_exit_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.cfg", rho01=0.2)
        with open(spec, "a") as fh:
            fh.write("rho01 = 0.3\n")
        out = tmp_path / "x"
        code = main(["synth", "--spec", str(spec), "--out", str(out)])
        assert code == 2
        assert ":8: 'rho01' is already given on line 3" in (
            capsys.readouterr().err)
        assert not out.exists()

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

    @pytest.mark.parametrize("text", [
        "0.1,0.2,0.3,0.4\n0.5,0.6,0.7\n0.1,0.2,0.3,0.4\n",  # ragged row
        "0.1,0.2,0.3,0.4\n0.5,x,0.7,0.8\n0.1,0.2,0.3,0.4\n"],  # non-numeric
        ids=["ragged", "non-numeric"])
    def test_malformed_scores_file_exit_2(self, tmp_path, capsys, text):
        scores = tmp_path / "scores.csv"
        scores.write_text(text)
        spec = write_spec(tmp_path / "spec.cfg", n_users=3, n_items=4,
                          scores=scores)
        out = tmp_path / "x"
        code = main(["synth", "--spec", str(spec), "--out", str(out)])
        assert code == 2
        assert f"scores file {scores}" in capsys.readouterr().err
        assert not out.exists()

    def test_out_is_a_file_exit_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.cfg")
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        code = main(["synth", "--spec", str(spec), "--out", str(out)])
        assert code == 2  # FileExistsError is an input error, not divergence
        assert str(out) in capsys.readouterr().err
        assert out.read_text() == "not a directory\n"

    @pytest.mark.parametrize("field, value", [
        ("n_users", -1), ("n_users", 0), ("n_items", 0)])
    def test_empty_or_negative_size_exit_2(self, tmp_path, capsys, field,
                                           value):
        spec = write_spec(tmp_path / "spec.cfg", **{field: value})
        out = tmp_path / "x"
        code = main(["synth", "--spec", str(spec), "--out", str(out)])
        assert code == 2
        assert "n_users and n_items must be >= 1" in capsys.readouterr().err
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
    @pytest.mark.parametrize("loss", [LossKind.squared(),
                                      LossKind.cross_entropy()])
    def test_default_imputation_equals_whole_matrix(self, loss):
        """Written a tile at a time, over several tiles (300 x 129 cells),
        the default imputation equals r_bar l1 + (1 - r_bar) l0 formed on
        the whole matrix, bit for bit."""
        inst = sample_instance(BenchmarkSpec(300, 129, 0.2, 0.1,
                                             pred_kind="SKEW", seed=2))
        o = inst.observed_mask
        r_bar = float((o * inst.observed_ratings).sum() / o.sum())
        l1, l0 = loss_curves(loss, inst.prediction.r_hat)
        want = r_bar * l1 + (1.0 - r_bar) * l0
        got = cli._default_imputation(inst, loss).e_bar
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("rho_mode", [None, "true", "estimated"])
    def test_rho_without_given_mode_exit_2(self, instance_dir, tmp_path,
                                           capsys, rho_mode):
        # a --rho the mode would ignore is an error, not a silent no-op
        out = tmp_path / "r.csv"
        mode = [] if rho_mode is None else ["--rho-mode", rho_mode]
        code = main(["estimate", "--instance", str(instance_dir), *mode,
                     "--rho", "0.3,0.1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--rho " in err and "--rho-mode given" in err
        assert not out.exists()

    def test_off_level_gamma_exit_2(self, instance_dir, tmp_path, capsys):
        # 0.42 is no level; searchsorted alone would read it as level 3
        path = instance_dir / "gamma.npy"
        g = np.load(path)
        g[1, 2] = 0.42
        np.save(path, g)
        out = tmp_path / "report.csv"
        code = main(["estimate", "--instance", str(instance_dir),
                     "--out", str(out)])
        assert code == 2
        assert "gamma.npy must hold the five levels" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fname, propensities", [
        ("p_true.npy", "perturbed"), ("p_hat.npy", "true")])
    def test_unused_propensities_wrong_shape_exit_2(
            self, instance_dir, tmp_path, capsys, fname, propensities):
        # the matrix the run does not use is shape-checked all the same
        path = instance_dir / fname
        np.save(path, np.load(path)[:, :-1])
        out = tmp_path / "report.csv"
        code = main(["estimate", "--instance", str(instance_dir),
                     "--propensities", propensities, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{path}: expected a (20, 25) matrix of real numbers" in err
        assert "float64 array of shape (20, 24)" in err
        assert not out.exists()

    @pytest.mark.parametrize("fname, case, message", [
        ("pred.npy", "empty", "not a readable .npy matrix"),
        ("o.npy", "truncated", "not a readable .npy matrix"),
        ("pred.npy", "pickled", "not a readable .npy matrix"),
        ("p_true.npy", "object", "not a readable .npy matrix"),
        ("gamma.npy", "complex", "complex128 array of shape (20, 25)"),
        ("pred.npy", "string", "matrix of real numbers, got a <U"),
        ("r_obs.npy", "directory", "not a readable .npy matrix")])
    def test_unreadable_matrix_exit_2(self, instance_dir, tmp_path, capsys,
                                      fname, case, message):
        path = instance_dir / fname
        arr = np.load(path)
        if case == "empty":
            path.write_bytes(b"")
        elif case == "truncated":
            path.write_bytes(path.read_bytes()[:-10])
        elif case == "pickled":
            path.write_bytes(pickle.dumps(arr))
        elif case == "object":
            np.save(path, arr.astype(object), allow_pickle=True)
        elif case == "complex":
            np.save(path, arr.astype(complex))
        elif case == "string":
            np.save(path, arr.astype(str))
        else:
            path.unlink()
            path.mkdir()
        out = tmp_path / "report.csv"
        code = main(["estimate", "--instance", str(instance_dir),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{path}: " in err and message in err
        assert not out.exists()

    def test_text_instance_of_earlier_version_exit_2(self, instance_dir,
                                                     tmp_path, capsys):
        for path in instance_dir.glob("*.npy"):
            np.savetxt(path.with_suffix(".csv"), np.load(path),
                       fmt="%.17g", delimiter=",")
            path.unlink()
        out = tmp_path / "report.csv"
        code = main(["estimate", "--instance", str(instance_dir),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "gamma.npy is missing, but gamma.csv is there" in err
        assert "run synth again with the same spec and seed" in err
        assert not out.exists()

    def test_out_is_a_directory_exit_2(self, instance_dir, tmp_path, capsys):
        out = tmp_path / "taken"
        out.mkdir()
        code = main(["estimate", "--instance", str(instance_dir),
                     "--out", str(out)])
        assert code == 2  # IsADirectoryError is an input error
        assert str(out) in capsys.readouterr().err

    def test_missing_instance_exit_2(self, tmp_path):
        code = main(["estimate", "--instance", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "r.csv")])
        assert code == 2

    @pytest.mark.parametrize("rho_mode", ["true", "estimated"])
    @pytest.mark.parametrize("bad", [0.0, float("nan")])
    def test_zero_or_nan_propensity_exit_2(self, instance_dir, tmp_path,
                                           capsys, bad, rho_mode):
        path = instance_dir / "p_hat.npy"
        p = np.load(path)
        p[3, 4] = bad
        np.save(path, p)
        out = tmp_path / "report.csv"
        code = main(["estimate", "--instance", str(instance_dir),
                     "--estimators", "naive,ips,ome_dr", "--rho-mode", rho_mode,
                     "--propensities", "perturbed", "--out", str(out)])
        assert code == 2
        assert "propensities must lie in (0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_prediction_exit_2(self, instance_dir, tmp_path, capsys):
        path = instance_dir / "pred.npy"
        r = np.load(path)
        r[2, 5] = np.nan
        np.save(path, r)
        out = tmp_path / "report.csv"
        code = main(["estimate", "--instance", str(instance_dir),
                     "--out", str(out)])
        assert code == 2
        assert ("predictions must lie strictly inside (0, 1)"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("fname, cell, value, message", [
        ("o.npy", None, 0.5, "observed_mask entries must be in {0,1}"),
        ("o.npy", (2, 3), 257, "observed_mask entries must be in {0,1}"),
        ("r_true.npy", (4, 1), 2, "true_ratings entries must be in {0,1}")])
    def test_non_binary_matrix_exit_2(self, instance_dir, tmp_path, capsys,
                                      fname, cell, value, message):
        # an int8 cast before the check would read 0.5 as 0 and 257 as 1
        path = instance_dir / fname
        arr = np.load(path).astype(np.float64)  # int8 holds neither value
        if cell is None:
            arr[:] = value
        else:
            arr[cell] = value
        np.save(path, arr)
        out = tmp_path / "report.csv"
        code = main(["estimate", "--instance", str(instance_dir),
                     "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_non_binary_observed_rating_exit_2(self, instance_dir, tmp_path,
                                               capsys):
        mask = np.load(instance_dir / "o.npy")
        u, i = np.argwhere(mask == 1)[0]
        path = instance_dir / "r_obs.npy"
        r = np.load(path).astype(np.float64)
        r[u, i] = 0.5
        np.save(path, r)
        code = main(["estimate", "--instance", str(instance_dir),
                     "--out", str(tmp_path / "report.csv")])
        assert code == 2
        assert (f"observed rating at ({u},{i}) not in {{0,1}}"
                in capsys.readouterr().err)

    def test_instance_with_gamma_source_estimates_as_before(self, tmp_path):
        # an instance written while the manifest still held gamma_source,
        # beside the report that version's estimate wrote: the rows are
        # the same, and so is a fresh synth's report, manifest line and all
        fixture = DATA / "instance_4x5"
        assert json.loads((fixture / "manifest.json").read_text())[
            "gamma_source"] == "quantile"
        old = tmp_path / "old.csv"
        assert main(["estimate", "--instance", str(fixture),
                     "--out", str(old)]) == 0
        fresh = tmp_path / "inst"
        assert main(["synth", "--spec", str(DATA / "spec_4x5.cfg"),
                     "--out", str(fresh)]) == 0
        assert main(["estimate", "--instance", str(fresh),
                     "--out", str(tmp_path / "fresh.csv")]) == 0
        _, header, rows = read_report(old)
        assert (header, rows) == read_report(
            DATA / "instance_4x5_estimate.csv")[1:]
        assert old.read_text() == (tmp_path / "fresh.csv").read_text()

    @pytest.mark.parametrize("case", [
        "missing", "unknown", "broken", "alpha", "gamma_proportions",
        "propensity_floor", "n_users"])
    def test_malformed_manifest_exit_2(self, instance_dir, tmp_path, capsys,
                                       case):
        path = instance_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        wrong = {"alpha": "x", "gamma_proportions": 0.2,
                 "propensity_floor": None, "n_users": True}
        if case == "missing":
            del manifest["gamma_proportions"]
            text, message = (json.dumps(manifest),
                             "missing field 'gamma_proportions'")
        elif case == "unknown":
            manifest["extra"] = 1
            text, message = json.dumps(manifest), "unknown field 'extra'"
        elif case == "broken":
            text, message = json.dumps(manifest)[:-10], "not valid JSON"
        else:  # a value of the wrong type names its key
            manifest[case] = wrong[case]
            text, message = json.dumps(manifest), f"{case}: cannot read"
        path.write_text(text)
        out = tmp_path / "report.csv"
        code = main(["estimate", "--instance", str(instance_dir),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{path}: " in err and message in err
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

    def test_spaces_around_estimator_names_stripped(self, instance_dir,
                                                    tmp_path):
        spaced, plain = tmp_path / "spaced.csv", tmp_path / "plain.csv"
        for out, names in ((spaced, "naive, ips,ome_dr "),
                           (plain, "naive,ips,ome_dr")):
            assert main(["estimate", "--instance", str(instance_dir),
                         "--estimators", names, "--out", str(out)]) == 0
        _, _, rows = read_report(spaced)
        assert [r[0] for r in rows] == ["naive", "ips", "ome_dr"]
        assert spaced.read_bytes() == plain.read_bytes()

    def test_missing_propensities_row_level_error(self, instance_dir,
                                                  tmp_path):
        (instance_dir / "p_hat.npy").unlink()
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

    @pytest.mark.parametrize("rho_mode", ["true", "estimated"])
    def test_one_validation_pass(self, instance_dir, tmp_path, monkeypatch,
                                 rho_mode):
        # load_instance checks the binary matrices, and the dataset it
        # built is the one every later step reads
        calls = []
        real = data.validate_dataset
        monkeypatch.setattr(data, "validate_dataset",
                            lambda d: calls.append(d) or real(d))
        assert main(["estimate", "--instance", str(instance_dir),
                     "--rho-mode", rho_mode,
                     "--out", str(tmp_path / "report.csv")]) == 0
        assert len(calls) == 1


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

    def test_report_hash_records_the_config(self, instance_dir, tmp_path):
        # two runs that differ only in their config write different hashes
        hashes = []
        for text in ("sgd.max_epochs = 2\n",
                     "sgd.max_epochs = 40\nsgd.learning_rate = 0.3\n"):
            cfg = tmp_path / "train.cfg"
            cfg.write_text(text)
            out = tmp_path / f"run{len(hashes)}"
            assert main(["train", "--data", str(instance_dir), "--method",
                         "naive", "--config", str(cfg),
                         "--out", str(out)]) == 0
            hashes.append((out / "eval.csv").read_text().splitlines()[0])
        assert hashes[0] != hashes[1]

    def test_unset_options_keep_alt_config_defaults(
            self, instance_dir, tmp_path, monkeypatch):
        # the loop counts a config leaves out come from AltTrainConfig itself
        @dataclasses.dataclass
        class Shifted(cli.AltTrainConfig):
            steps_prediction: int = 3
            steps_imputation: int = 2
            embedding_dim: int = 4

        seen = []

        def spy(dataset, p_hat, noisy, config):
            seen.append(config)
            return real(dataset, p_hat, noisy, config)

        real = cli.alternating_denoise_train
        monkeypatch.setattr(cli, "AltTrainConfig", Shifted)
        monkeypatch.setattr(cli, "alternating_denoise_train", spy)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("outer_loops = 2\nsteps_imputation = 5\n"
                       "sgd.max_epochs = 2\npropensity_epochs = 5\n")
        code = main(["train", "--data", str(instance_dir), "--method",
                     "ome_alt", "--config", str(cfg),
                     "--out", str(tmp_path / "run")])
        assert code == 0
        (config,) = seen
        assert (config.outer_loops, config.steps_prediction,
                config.steps_imputation,
                config.embedding_dim) == (2, 3, 5, 4)

    @pytest.mark.parametrize("text, message", [
        ("outer_loops = 2\nouter_loops = 3\n",
         ":2: 'outer_loops' is already given on line 1"),
        ("rho_init.a = 1\nrho_init = 0.2,0.1\n",
         ":2: 'rho_init' is already given on line 1")],
        ids=["value", "section-then-value"])
    def test_repeated_option_exit_2(self, instance_dir, tmp_path, capsys,
                                    text, message):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(text)
        out = tmp_path / "run"
        code = main(["train", "--data", str(instance_dir), "--method",
                     "naive", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_k_extreme_option(self, instance_dir, tmp_path):
        # at 500 pairs the default rule gives 1, so an explicit 1 writes
        # the same trace
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

    def test_unknown_pretrain_method_exit_2_before_output(
            self, instance_dir, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("pretrain_method = foo\n")
        out = tmp_path / "run"
        code = main(["train", "--data", str(instance_dir),
                     "--method", "ome_alt", "--config", str(cfg),
                     "--out", str(out)])
        assert code == 2
        assert "pretrain method must be one of" in capsys.readouterr().err
        assert not out.exists()  # rejected before any training

    def test_one_class_eval_labels_exit_2_before_output(self, tmp_path,
                                                        capsys):
        triples = tmp_path / "ones.tsv"
        triples.write_text("".join(f"{u}\t{u % 3}\t1\n" for u in range(10)))
        out = tmp_path / "run"
        code = main(["train", "--data", str(triples), "--method", "naive",
                     "--out", str(out)])
        assert code == 2
        assert ("need at least one positive and one negative"
                in capsys.readouterr().err)
        assert not out.exists()  # no checkpoint of an unscorable run

    @pytest.mark.parametrize("error", [RuntimeError, NotImplementedError,
                                       RecursionError])
    def test_other_runtime_errors_not_divergence(self, monkeypatch, tmp_path,
                                                 error):
        # exit 3 means training divergence; a broken worker pool, a
        # recursion limit or a missing method propagates as itself
        def fail(args):
            raise error("not a divergence")

        monkeypatch.setattr(cli, "cmd_train", fail)
        with pytest.raises(error, match="not a divergence"):
            main(["train", "--data", str(tmp_path), "--out", str(tmp_path)])

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

    @pytest.mark.parametrize("method", ["ips", "ome_alt"])
    def test_triples_split_as_mask_product(self, tmp_path, monkeypatch,
                                           method):
        # the split formed, as it once was, from a 0/1 held-out mask: the
        # training mask as a product, the labels by np.where
        def product_split(path, seed):
            dataset = load_dataset_triples(path)
            test_mask = np.zeros(dataset.shape, dtype=np.int8)
            test_mask.flat[dataset.held_out_cells(make_rng(seed))] = 1
            train_mask = dataset.observed_mask * (1 - test_mask)
            train = RatingDataset(dataset.n_users, dataset.n_items,
                                  train_mask, dataset.observed_ratings)
            return train, np.where(test_mask == 1,
                                   dataset.observed_ratings, -1)

        rng = np.random.default_rng(2)
        triples = tmp_path / "data.tsv"
        triples.write_text("".join(
            f"{u}\t{i}\t{int(rng.random() < 0.5)}\n"
            for u in range(17) for i in range(13) if rng.random() < 0.6))
        cfg = tmp_path / "train.cfg"
        cfg.write_text("sgd.max_epochs = 3\npropensity_epochs = 10\nk = 3\n"
                       "outer_loops = 2\n")
        runs = []
        for split in (cli._load_training_data, product_split):
            monkeypatch.setattr(cli, "_load_training_data", split)
            out = tmp_path / f"run{len(runs)}"
            assert main(["train", "--data", str(triples), "--method", method,
                         "--config", str(cfg), "--out", str(out)]) == 0
            runs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert set(runs[0]) >= {"checkpoint.npz", "eval.csv"}
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("sep, extra", [(",", ""), (", ", ""),
                                            ("\t", "\t881250949"),
                                            (" ", " 3.5")])
    def test_triples_read_as_tab_separated(self, tmp_path, sep, extra):
        # ingest's grammar: fields split on tabs, spaces or commas, and
        # fields past the rating (a timestamp) ignored
        rng = np.random.default_rng(0)
        rows = [(u, i, int(rng.random() < 0.5)) for u in range(15)
                for i in range(15) if rng.random() < 0.6]
        tsv, other = tmp_path / "data.tsv", tmp_path / "data.txt"
        tsv.write_text("".join(f"{u}\t{i}\t{r}\n" for u, i, r in rows))
        other.write_text("".join(f"{u}{sep}{i}{sep}{r}{extra}\n"
                                 for u, i, r in rows))
        want_train, want_labels = cli._load_training_data(tsv, 0)
        got_train, got_labels = cli._load_training_data(other, 0)
        assert got_train.shape == want_train.shape
        assert np.array_equal(got_train.observed_mask,
                              want_train.observed_mask)
        assert np.array_equal(got_train.observed_ratings,
                              want_train.observed_ratings)
        assert np.array_equal(got_labels, want_labels)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("sgd.max_epochs = 2\npropensity_epochs = 2\nk = 2\n")
        assert main(["train", "--data", str(other), "--method", "naive",
                     "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 0

    @pytest.mark.parametrize("line, message", [
        ("k = 0", "k must be >= 1, got 0"),
        ("k = -2", "k must be >= 1, got -2"),
        ("propensity_epochs = -1", "propensity_epochs must be >= 0, got -1"),
        ("embedding_dim = 0", "embedding dimension must be >= 1")])
    def test_out_of_range_option_exit_2_before_output(
            self, instance_dir, tmp_path, capsys, line, message):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"{line}\nsgd.max_epochs = 1\n")
        out = tmp_path / "run"
        code = main(["train", "--data", str(instance_dir), "--method", "naive",
                     "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()  # rejected before any training or output

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
        cfg.write_text("top_k = 3\nbatch = 2\n")  # the first one is named
        out = tmp_path / "run"
        code = main(["train", "--data", str(instance_dir), "--method", "naive",
                     "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "unknown train option 'top_k'" in capsys.readouterr().err
        assert not out.exists()


class TestRhoRecipe:
    """train --method ome_alt and estimate --rho-mode estimated pretrain the
    noisy-rate model q with one config, on the chosen propensities, and read
    it at one extreme-cell count."""

    @staticmethod
    def spy(monkeypatch, names):
        """Record the bound arguments of each named CLI call, by name."""
        seen = {name: [] for name in names}
        for name in names:
            real = getattr(cli, name)

            def record(*args, _real=real, _name=name, **kwargs):
                bound = inspect.signature(_real).bind(*args, **kwargs)
                seen[_name].append(bound.arguments)
                return _real(*args, **kwargs)

            monkeypatch.setattr(cli, name, record)
        return seen

    @pytest.fixture
    def instance_100(self, tmp_path):
        # 10 000 cells: more than one 4096-cell batch, and k = 10
        spec = write_spec(tmp_path / "spec100.cfg", n_users=100,
                          n_items=100)
        out = tmp_path / "inst100"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        return out

    def test_train_and_estimate_share_config_and_k(self, instance_100,
                                                   tmp_path, monkeypatch):
        seen = self.spy(monkeypatch, ["pretrain_noisy_model",
                                      "alternating_denoise_train",
                                      "identify_error_params"])
        cfg = tmp_path / "train.cfg"
        cfg.write_text("outer_loops = 1\npropensity_epochs = 5\n")
        assert main(["train", "--data", str(instance_100), "--method",
                     "ome_alt", "--config", str(cfg), "--seed", "4",
                     "--out", str(tmp_path / "run")]) == 0
        assert main(["estimate", "--instance", str(instance_100),
                     "--rho-mode", "estimated", "--seed", "4",
                     "--out", str(tmp_path / "report.csv")]) == 0
        train_cfg, estimate_cfg = [
            call["config"] for call in seen["pretrain_noisy_model"]]
        assert train_cfg == estimate_cfg == SgdConfig(seed=4)
        (loop,) = seen["alternating_denoise_train"]
        assert loop["config"].k_extreme == 10
        (identify,) = seen["identify_error_params"]
        assert identify["k_extreme"] == 10

    def test_explicit_k_extreme_reaches_the_loop(self, instance_100,
                                                 tmp_path, monkeypatch):
        seen = self.spy(monkeypatch, ["alternating_denoise_train"])
        cfg = tmp_path / "train.cfg"
        cfg.write_text("outer_loops = 1\npropensity_epochs = 5\n"
                       "sgd.max_epochs = 1\nk_extreme = 3\n")
        assert main(["train", "--data", str(instance_100), "--method",
                     "ome_alt", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 0
        (loop,) = seen["alternating_denoise_train"]
        assert loop["config"].k_extreme == 3

    @pytest.mark.parametrize("propensities", ["true", "perturbed"])
    def test_estimated_rho_pretrains_on_chosen_propensities(
            self, instance_dir, tmp_path, monkeypatch, propensities):
        seen = self.spy(monkeypatch, ["pretrain_noisy_model"])
        assert main(["estimate", "--instance", str(instance_dir),
                     "--rho-mode", "estimated", "--propensities",
                     propensities, "--out", str(tmp_path / "r.csv")]) == 0
        inst = load_instance(instance_dir)
        want = inst.p_true if propensities == "true" else inst.p_hat
        assert not np.array_equal(inst.p_true, inst.p_hat)
        (call,) = seen["pretrain_noisy_model"]
        assert np.array_equal(call["p_hat"], want)

    def test_estimated_rho_without_p_hat_exit_2(self, instance_dir,
                                                tmp_path, capsys):
        (instance_dir / "p_hat.npy").unlink()
        out = tmp_path / "report.csv"
        code = main(["estimate", "--instance", str(instance_dir),
                     "--rho-mode", "estimated", "--propensities",
                     "perturbed", "--out", str(out)])
        assert code == 2
        assert "needs propensities" in capsys.readouterr().err
        assert not out.exists()

    def test_estimated_rho_without_p_hat_names_the_way_out(
            self, instance_dir, tmp_path, capsys):
        (instance_dir / "p_hat.npy").unlink()
        assert main(["estimate", "--instance", str(instance_dir),
                     "--rho-mode", "estimated",
                     "--out", str(tmp_path / "report.csv")]) == 2
        err = capsys.readouterr().err
        assert "p_hat.npy" in err
        assert "--propensities true" in err


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

    @pytest.mark.parametrize("flag, value", [
        ("--n-seeds", "0"), ("--n-seeds", "-3"), ("--jobs", "0"),
        ("--jobs", "-2")])
    def test_flag_below_one_exit_2(self, tmp_path, capsys, flag, value):
        spec = write_spec(tmp_path / "spec.cfg")
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--spec", str(spec), flag, value,
                     "--out", str(out)])
        assert code == 2
        assert f"{flag} must be >= 1, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_estimator_row_matches_estimate(self, tmp_path):
        spec = write_spec(tmp_path / "spec.cfg")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--spec", str(spec), "--n-seeds", "1",
                     "--estimators", "naive,snips", "--out", str(out)]) == 0
        _, _, rows = read_report(out)
        assert rows[1] == ["0", "snips", "error", "",
                           "unknown estimator 'snips'"]

    @pytest.mark.parametrize("with_scores", [False, True],
                             ids=["synthetic", "scores"])
    def test_rows_equal_synth_then_estimate(self, tmp_path, with_scores):
        """Each seed's sweep rows are what synth --seed s and then estimate
        write for the same spec, a scores file included."""
        extra = {}
        if with_scores:
            scores = tmp_path / "scores.csv"
            values = np.arange(20 * 25)[::-1].reshape(20, 25) % 37
            np.savetxt(scores, values, delimiter=",")
            extra["scores"] = scores
        spec = write_spec(tmp_path / "spec.cfg", **extra)
        names = "naive,ips,ome_dr"
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--spec", str(spec), "--n-seeds", "2",
                     "--seed", "5", "--estimators", names,
                     "--out", str(out)]) == 0
        _, _, rows = read_report(out)
        for seed in (5, 6):
            inst, report = tmp_path / f"inst{seed}", tmp_path / f"{seed}.csv"
            assert main(["synth", "--spec", str(spec), "--seed", str(seed),
                         "--out", str(inst)]) == 0
            assert main(["estimate", "--instance", str(inst),
                         "--estimators", names, "--out", str(report)]) == 0
            want = read_report(report)[2]
            assert [r[1:] for r in rows if r[0] == str(seed)] == want

    def test_missing_scores_file_exit_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.cfg",
                          scores=tmp_path / "nonexistent.csv")
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--spec", str(spec), "--n-seeds", "2",
                     "--out", str(out)])
        assert code == 2
        assert "nonexistent.csv" in capsys.readouterr().err
        assert not out.exists()
