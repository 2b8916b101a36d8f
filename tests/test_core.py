import ast
import dataclasses
import importlib
import inspect
import tempfile
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisyrec.data import (
    DEFAULT_PROPENSITY_FLOOR,
    EPS_RHO,
    ErrorParams,
    ImputationMatrix,
    PredictionMatrix,
    PropensityMatrix,
    RatingDataset,
    ValidationError,
    dataset_from_triples,
    load_dataset_triples,
    make_rng,
    read_fields,
    read_value,
    save_dataset_triples,
    validate_dataset,
)
from noisyrec.estimators import true_inaccuracy
from noisyrec.losses import LossKind, loss_curves
from noisyrec.models import SgdConfig
from noisyrec.noise import NoisyRateModel
from noisyrec.synthbench import BenchmarkSpec
from noisyrec.training import AltTrainConfig


class TestValidateDataset:
    def test_well_formed(self):
        d = RatingDataset(2, 2, np.ones((2, 2)), np.eye(2))
        assert validate_dataset(d) == []

    def test_bad_observed_rating_names_cell(self):
        d = RatingDataset.__new__(RatingDataset)
        object.__setattr__(d, "n_users", 2)
        object.__setattr__(d, "n_items", 2)
        object.__setattr__(d, "observed_mask", np.ones((2, 2), dtype=np.int8))
        ratings = np.zeros((2, 2))
        ratings[0, 1] = 0.5
        object.__setattr__(d, "observed_ratings", ratings)
        object.__setattr__(d, "true_ratings", None)
        violations = validate_dataset(d)
        assert len(violations) == 1
        assert "(0,1)" in violations[0]

    def test_construction_rejects_violations(self):
        with pytest.raises(ValidationError):
            RatingDataset(2, 2, np.ones((2, 3)), np.zeros((2, 2)))

    @pytest.mark.parametrize("value", [2, -1])
    def test_mask_outside_binary_rejected(self, value):
        mask = np.ones((2, 2), dtype=np.int8)
        mask[1, 0] = value
        with pytest.raises(ValidationError) as exc:
            RatingDataset(2, 2, mask, np.zeros((2, 2)))
        assert str(exc.value) == "observed_mask entries must be in {0,1}"

    def test_true_rating_outside_binary_rejected(self):
        truth = np.zeros((2, 2), dtype=np.int8)
        truth[0, 1] = 3
        with pytest.raises(ValidationError) as exc:
            RatingDataset(2, 2, np.ones((2, 2)), np.zeros((2, 2)), truth)
        assert str(exc.value) == "true_ratings entries must be in {0,1}"

    def test_first_bad_observed_rating_in_row_major_order(self):
        ratings = np.array([[0, 1, 0], [4, 1, -3]], dtype=np.int8)
        mask = np.ones((2, 3), dtype=np.int8)
        with pytest.raises(ValidationError) as exc:
            RatingDataset(2, 3, mask, ratings)
        assert str(exc.value) == "observed rating at (1,0) not in {0,1}"

    def test_unobserved_cells_ignore_rating_values(self):
        ratings = np.array([[7, 0], [0, 0]], dtype=np.int8)
        mask = np.array([[0, 1], [1, 1]], dtype=np.int8)
        d = RatingDataset(2, 2, mask, ratings)
        assert validate_dataset(d) == []

    def test_values_checked_before_int8_cast(self):
        # an int8 cast before the check would turn 0.5, 1.7 and 257 into
        # 0, 1 and 1, a valid mask
        mask = np.array([[0.5, 1.7], [1, 257]])
        ratings = np.array([[1, 0.9], [1.2, 0]])
        with pytest.raises(ValidationError) as exc:
            RatingDataset(2, 2, mask, ratings)
        assert str(exc.value) == ("observed_mask entries must be in {0,1}; "
                                  "observed rating at (1,0) not in {0,1}")

    @pytest.mark.parametrize("name, message", [
        ("observed_mask", "observed_mask entries must be in {0,1}"),
        ("observed_ratings", "observed rating at (0,1) not in {0,1}"),
        ("true_ratings", "true_ratings entries must be in {0,1}")])
    def test_int64_257_not_wrapped(self, name, message):
        arrays = {key: np.ones((2, 2), dtype=np.int64)
                  for key in ("observed_mask", "observed_ratings",
                              "true_ratings")}
        arrays[name][0, 1] = 257
        with pytest.raises(ValidationError) as exc:
            RatingDataset(2, 2, **arrays)
        assert str(exc.value) == message

    def test_int8_inputs_kept_without_copy(self):
        mask = np.array([[0, 1], [1, 1]], dtype=np.int8)
        ratings = np.array([[0, 1], [0, 1]], dtype=np.int8)
        truth = np.array([[1, 1], [0, 1]], dtype=np.int8)
        d = RatingDataset(2, 2, mask, ratings, truth)
        assert d.observed_mask is mask
        assert d.observed_ratings is ratings
        assert d.true_ratings is truth

    def test_other_binary_inputs_stored_as_int8(self):
        d = RatingDataset(2, 2, np.array([[0.0, 1.0], [1.0, 1.0]]),
                          [[0, 1], [1, 0]], np.eye(2, dtype=bool))
        for arr, want in ((d.observed_mask, [[0, 1], [1, 1]]),
                          (d.observed_ratings, [[0, 1], [1, 0]]),
                          (d.true_ratings, [[1, 0], [0, 1]])):
            assert arr.dtype == np.int8
            assert np.array_equal(arr, want)


def traced_peak(call) -> int:
    """The tracemalloc peak of call(), in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# one 0/1 rule, data.is_binary: (dtype, the value of the last cell of a
# zero matrix, accepted)
BINARY_TABLE = [
    (np.int64, 257, False), (np.int8, -1, False), (np.uint8, 2, False),
    (np.float64, 0.5, False), (np.float64, np.nan, False),
    (bool, True, True), (np.int8, 1, True), (np.float64, 1.0, True)]


class TestBinaryRule:
    @pytest.mark.parametrize("dtype, value, accepted", BINARY_TABLE)
    @pytest.mark.parametrize("role", [
        "observed_mask", "observed_ratings", "true_ratings",
        "true_inaccuracy"])
    def test_one_rule_everywhere(self, role, dtype, value, accepted):
        a = np.zeros((3, 4), dtype=dtype)
        a[2, 3] = value
        ones, zeros = np.ones((3, 4)), np.zeros((3, 4))
        call, message = {
            "observed_mask": (lambda: RatingDataset(3, 4, a, zeros),
                              "observed_mask entries must be in {0,1}"),
            "observed_ratings": (lambda: RatingDataset(3, 4, ones, a),
                                 "observed rating at (2,3) not in {0,1}"),
            "true_ratings": (lambda: RatingDataset(3, 4, ones, zeros, a),
                             "true_ratings entries must be in {0,1}"),
            "true_inaccuracy": (lambda: true_inaccuracy(
                PredictionMatrix(np.full((3, 4), 0.5)), a,
                LossKind.squared()), "true ratings entries must be in {0,1}"),
        }[role]
        if accepted:
            call()
        else:
            with pytest.raises(ValidationError) as exc:
                call()
            assert str(exc.value) == message

    @pytest.mark.parametrize("what", ["dataset", "imputation"])
    def test_checks_hold_no_matrix(self, what):
        """Three int8 matrices and an imputation matrix are checked with
        reductions; a 1000 x 1000 check peaks below 0.1 MiB (the n x m
        masks took 2.86 and 0.95 MiB)."""
        rng = make_rng(0)
        mask, ratings, truth = (
            (rng.random((1000, 1000)) < 0.5).astype(np.int8)
            for _ in range(3))
        e_bar = rng.normal(size=(1000, 1000))
        call = {"dataset": lambda: RatingDataset(1000, 1000, mask, ratings,
                                                 truth),
                "imputation": lambda: ImputationMatrix(e_bar)}[what]
        assert traced_peak(call) < 0.1 * 2**20


class TestObservedIndex:
    @pytest.mark.parametrize("shape", [(7, 5), (1, 9), (6, 1), (3, 4)])
    def test_matches_nonzero_of_mask(self, shape):
        mask = (make_rng(sum(shape)).random(shape) < 0.4).astype(np.int8)
        if shape == (3, 4):
            mask[:] = 0
        d = RatingDataset(*shape, mask, np.zeros(shape))
        assert np.array_equal(d.observed_index, np.flatnonzero(mask))
        for got, want in zip(d.observed_pairs(), np.nonzero(mask)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


class TestErrorParams:
    def test_rejects_sum_at_boundary(self):
        with pytest.raises(ValidationError, match="rho01\\+rho10"):
            ErrorParams(0.6, 0.5)

    @given(
        st.floats(0.0, 2.0, allow_nan=False),
        st.floats(0.0, 2.0, allow_nan=False),
    )
    def test_rejects_invalid_sums_everywhere(self, r01, r10):
        if r01 + r10 >= 1.0 - EPS_RHO:
            with pytest.raises(ValidationError):
                ErrorParams(r01, r10)
        else:
            rho = ErrorParams(r01, r10)
            assert rho.denom > 0

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            ErrorParams(-0.1, 0.2)


class TestMatrices:
    def test_propensity_floor_enforced(self):
        with pytest.raises(ValidationError):
            PropensityMatrix(np.full((2, 2), 0.01))
        clipped = PropensityMatrix.clipped(np.full((2, 2), 0.01))
        assert np.all(clipped.p_hat == 0.05)

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -0.0, -0.1, 1.0 + 1e-9])
    def test_propensity_outside_unit_interval_rejected(self, bad):
        p = np.full((3, 4), 0.5)
        p[1, 2] = bad
        # the interval holds whatever the floor, even one as low as the
        # smallest entry
        floor = min(float(np.min(p)), DEFAULT_PROPENSITY_FLOOR)
        with pytest.raises(ValidationError, match=r"\(0, 1\]"):
            PropensityMatrix(p, floor=floor)
        with pytest.raises(ValidationError):
            PropensityMatrix(p, floor=0.0)

    def test_propensity_error_names_a_floor_above_zero_only(self):
        p = np.full((2, 2), 0.5)
        p[0, 1] = 1.5
        with pytest.raises(ValidationError) as exc:
            PropensityMatrix(p, floor=0.0)
        assert str(exc.value) == "propensities must lie in (0, 1]"
        p[0, 1] = 0.01
        with pytest.raises(ValidationError, match=r"\(0, 1\] and not below "
                           r"the floor 0\.05$"):
            PropensityMatrix(p)

    def test_prediction_open_interval(self):
        with pytest.raises(ValidationError):
            PredictionMatrix(np.array([[0.0, 0.5]]))

    def test_prediction_rejects_nan(self):
        # a NaN passes r <= 0 and r >= 1
        with pytest.raises(ValidationError, match=r"inside \(0, 1\)"):
            PredictionMatrix(np.array([[0.3, np.nan]]))


def _with_cell(value):
    a = np.full((2, 3), 0.5)
    a[1, 2] = value
    return a


# (2-D matrix, whether every entry lies strictly inside (0, 1))
UNIT_INTERVAL_CASES = {
    "half": (_with_cell(0.5), True),
    "nan": (_with_cell(np.nan), False),
    "+inf": (_with_cell(np.inf), False),
    "-inf": (_with_cell(-np.inf), False),
    "zero": (_with_cell(0.0), False),
    "negative zero": (_with_cell(-0.0), False),
    "one": (_with_cell(1.0), False),
    "above zero": (_with_cell(np.nextafter(0.0, 1.0)), True),
    "below zero": (_with_cell(np.nextafter(0.0, -1.0)), False),
    "below one": (_with_cell(np.nextafter(1.0, 0.0)), True),
    "above one": (_with_cell(np.nextafter(1.0, 2.0)), False),
    "empty": (np.empty((0, 0)), True),
}


def _accepts(check, a) -> bool:
    try:
        check(a)
    except ValidationError:
        return False
    return True


class TestUnitIntervalRule:
    """Predictions, noisy rates and the loss curves read one open-interval
    rule: they accept exactly the same matrices."""

    @pytest.mark.parametrize("case", list(UNIT_INTERVAL_CASES))
    def test_checks_agree(self, case):
        a, inside = UNIT_INTERVAL_CASES[case]
        checks = (PredictionMatrix, NoisyRateModel,
                  lambda x: loss_curves(LossKind.squared(), x),
                  lambda x: loss_curves(LossKind.cross_entropy(), x))
        assert [_accepts(check, a.copy()) for check in checks] == (
            [inside] * len(checks))

    @pytest.mark.parametrize("shape", [(6,), (1, 2, 3)])
    @pytest.mark.parametrize("make, what", [
        (PropensityMatrix, "propensity"), (PredictionMatrix, "prediction"),
        (ImputationMatrix, "imputation"), (NoisyRateModel, "noisy-rate")])
    def test_not_2d_rejected_by_name(self, make, what, shape):
        with pytest.raises(ValidationError,
                           match=f"^{what} matrix must be 2-D$"):
            make(np.full(shape, 0.5))


class TestReadValue:
    @pytest.mark.parametrize("value, kind, want", [
        ("3", int, 3), ("0.5", float, 0.5), ("ips", str, "ips"),
        ("0.1,0.2", tuple, (0.1, 0.2)), (3, int, 3), (1, float, 1),
        (0.5, float, 0.5), ([0.5, 1], tuple, (0.5, 1))])
    def test_text_read_and_typed_values_passed(self, value, kind, want):
        got = read_value("key", value, kind)
        assert got == want and type(got) is type(want)

    @pytest.mark.parametrize("value, kind", [
        ("2.5", int), ("x", float), ("0.5,a", tuple), (True, int),
        (False, float), (None, float), (None, str), (2.0, int), (3, str),
        (0.2, tuple), ([0.5, True], tuple), (["0.5"], tuple), ({}, int)])
    def test_other_values_rejected_naming_key(self, value, kind):
        with pytest.raises(ValidationError,
                           match=f"key: cannot read .* as {kind.__name__}"):
            read_value("key", value, kind)

    def test_fields_read_by_annotation(self):
        got = read_fields(SgdConfig, {"seed": "3", "learning_rate": 1},
                          "sgd option", "sgd.")
        assert got == {"seed": 3, "learning_rate": 1}
        with pytest.raises(ValidationError, match="sgd.seed: cannot read"):
            read_fields(SgdConfig, {"seed": "x"}, "sgd option", "sgd.")
        with pytest.raises(ValidationError, match="unknown sgd option 'a'"):
            read_fields(SgdConfig, {"seed": 1, "a": 1, "b": 2}, "sgd option")
        with pytest.raises(ValidationError, match="missing o 'optimizer'"):
            read_fields(SgdConfig, {"seed": 1}, "o", required=("optimizer",))
        with pytest.raises(ValidationError, match="expected a mapping of os"):
            read_fields(SgdConfig, [1], "o")


class TestRngDeterminism:
    def test_equal_seeds_bit_identical(self):
        a = make_rng(123).random((50, 50))
        b = make_rng(123).random((50, 50))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_rng(1).random(10), make_rng(2).random(10))


class TestTriplesFormat:
    def test_roundtrip(self, tmp_path):
        rng = make_rng(0)
        mask = (rng.random((6, 9)) < 0.5).astype(np.int8)
        mask[-1, -1] = 1  # the inferred universe is all 6 x 9
        ratings = (rng.random((6, 9)) < 0.4).astype(np.int8) * mask
        d = RatingDataset(6, 9, mask, ratings)
        path = tmp_path / "data.tsv"
        save_dataset_triples(path, d)
        loaded = load_dataset_triples(path)
        assert loaded.shape == (6, 9)
        assert np.array_equal(loaded.observed_mask, d.observed_mask)
        assert np.array_equal(
            loaded.observed_ratings * loaded.observed_mask,
            d.observed_ratings * d.observed_mask)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\t0\t1\nnot a line\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_dataset_triples(path)

    @pytest.mark.parametrize("line", ["2,1,1", "2, 1, 1", "2 1\t1",
                                      "2\t1\t1\t881250949", "2,1,1,4.5"])
    def test_separators_and_extra_fields(self, tmp_path, line):
        path = tmp_path / "data.txt"
        path.write_text(f"0\t0\t0\n\n{line}\n")
        d = load_dataset_triples(path)
        assert d.shape == (3, 2)
        assert np.array_equal(d.observed_mask, [[1, 0], [0, 0], [0, 1]])
        assert np.array_equal(d.observed_ratings, [[0, 0], [0, 0], [0, 1]])

    def test_short_line_named(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\t0\t1\n\n1,2\n")
        with pytest.raises(ValidationError,
                           match="line 3: expected 3 fields, got 2"):
            load_dataset_triples(path)

    def test_negative_index_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\t0\t1\n-1\t2\t0\n")
        with pytest.raises(ValidationError, match="line 2: negative user"):
            load_dataset_triples(path)

    def test_non_binary_rating_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\t0\t5\n")
        with pytest.raises(ValidationError, match="0 or 1"):
            load_dataset_triples(path)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("1\t1\t1\n0\t0\t1\n0\t0\t0\n")
        with pytest.raises(ValidationError,
                           match=r"duplicate pair \(user 0, item 0\)"):
            load_dataset_triples(path)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_triples_roundtrip_property(self, data):
        n = data.draw(st.integers(1, 8))
        m = data.draw(st.integers(1, 8))
        cells = data.draw(st.lists(st.integers(0, n * m - 1), min_size=1,
                                   unique=True))
        ratings = data.draw(st.lists(st.integers(0, 1), min_size=len(cells),
                                     max_size=len(cells)))
        users = [c // m for c in cells]
        items = [c % m for c in cells]
        # the universe is inferred: max index + 1 on each side
        n, m = max(users) + 1, max(items) + 1
        mask = np.zeros((n, m), dtype=np.int8)
        obs = np.zeros((n, m), dtype=np.int8)
        mask[users, items] = 1
        obs[users, items] = ratings
        built = dataset_from_triples(users, items, ratings)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.tsv"
            path.write_text("".join(f"{u}\t{i}\t{r}\n"
                                    for u, i, r in zip(users, items, ratings)))
            loaded = load_dataset_triples(path)
        for d in (built, loaded):
            assert d.shape == (n, m)
            assert np.array_equal(d.observed_mask, mask)
            assert np.array_equal(d.observed_ratings, obs)

    def test_dataset_from_triples_sizes_universe(self):
        d = dataset_from_triples([0, 2], [1, 0], [1, 0])
        assert d.shape == (3, 2)
        assert np.array_equal(d.observed_mask, [[0, 1], [0, 0], [1, 0]])
        assert np.array_equal(d.observed_ratings, [[0, 1], [0, 0], [0, 0]])


SRC = Path(__file__).resolve().parents[1] / "src" / "noisyrec"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never read as a name."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in bound.items()
                  if name not in read)


class TestImports:
    def test_checker_flags_unused_and_keeps_used(self):
        source = ("from __future__ import annotations\n"
                  "import os.path\nimport numpy as np\n"
                  "from a import b, c as d\nnp.zeros(d)\n")
        assert unused_imports(source) == ["line 2: os", "line 4: b"]

    @pytest.mark.parametrize(
        "path", sorted(p.name for p in SRC.glob("*.py")
                       if p.name != "__init__.py"))
    def test_no_unused_imports(self, path):
        # __init__.py is skipped: its imports are the package's re-exports
        assert unused_imports((SRC / path).read_text()) == []


def public_defs(tree):
    """(name, node) of a module's public top-level functions and of the
    public methods of its public classes, a method named Class.method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for stmt in node.body:
                if (isinstance(stmt, ast.FunctionDef)
                        and not stmt.name.startswith("_")):
                    yield f"{node.name}.{stmt.name}", stmt


def referenced_names(nodes) -> set:
    """Every name the nodes read, import or take as an attribute, and every
    dotted part of a string constant (the benchmark names what it traces
    and patches by string)."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def unreached_defs(modules: dict, outside=()) -> list[str]:
    """The public defs of `modules` (module name -> source) that no source
    references outside the def's own body: no module, its own included, and
    no `outside` source. Matching is by the def's last name part."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    names = {name: referenced_names(ast.walk(tree))
             for name, tree in trees.items()}
    outside_names = referenced_names(
        node for source in outside for node in ast.walk(ast.parse(source)))
    out = []
    for mod_name, tree in trees.items():
        seen = outside_names.union(*(
            refs for other, refs in names.items() if other != mod_name))
        for name, node in public_defs(tree):
            body = {id(sub) for sub in ast.walk(node)}
            own = referenced_names(
                sub for sub in ast.walk(tree) if id(sub) not in body)
            if name.rsplit(".", 1)[-1] not in seen | own:
                out.append(f"{mod_name}.{name}")
    return sorted(out)


# public defs that no module of the package and no benchmark source reaches,
# each kept for its reason
UNREACHED_ALLOWED = {
    "models.imputation_objective": "the reference objective that the "
                                   "imputation step tests compare against",
    "models.propensity_objective": "the reference objective that the "
                                   "propensity fit tests compare against",
    "models.load_model": "reads the checkpoint that train writes",
    "data.PropensityMatrix.clipped": "a public constructor",
}


class TestReachedDefs:
    def test_checker_flags_unreached_and_keeps_reached(self):
        source = ("def used():\n    pass\n\n\ndef unused():\n    pass\n\n\n"
                  "def recursive():\n    return recursive()\n\n\n"
                  "def _private():\n    pass\n\n\nclass C:\n"
                  "    def method(self):\n        pass\n\n"
                  "    def called(self):\n        pass\n\n"
                  "    def traced(self):\n        pass\n\n"
                  "    def _hidden(self):\n        pass\n\n\nused()\n")
        modules = {"a": source, "b": "from a import C\nC().called()\n"}
        assert unreached_defs(modules, ['TARGETS = [("a", "C.traced")]']) == [
            "a.C.method", "a.recursive", "a.unused"]

    def test_every_public_def_is_reached(self):
        # an allowlisted def that is gone or has become reached fails too
        modules = {p.stem: p.read_text() for p in SRC.glob("*.py")}
        outside = [p.read_text()
                   for p in (SRC.parents[1] / "perfbench").glob("*.py")]
        assert unreached_defs(modules, outside) == sorted(UNREACHED_ALLOWED)


def defaulted_params(tree):
    """(qualified name, called name, def node, positional parameters,
    defaulted parameters) of every def in a module, nested ones too. A
    method's positional parameters leave out self or cls, and a class's
    __init__ is called by the class's name."""
    out = []

    def visit(node, prefix, cls):
        for stmt in ast.iter_child_nodes(node):
            if isinstance(stmt, ast.ClassDef):
                visit(stmt, f"{prefix}{stmt.name}.", stmt.name)
            elif isinstance(stmt, ast.FunctionDef):
                args = stmt.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                if cls and not any(getattr(d, "id", None) == "staticmethod"
                                   for d in stmt.decorator_list):
                    positional = positional[1:]
                named = positional[len(positional) - len(args.defaults):]
                named += [a.arg for a, d in zip(args.kwonlyargs,
                                                args.kw_defaults) if d]
                called = cls if stmt.name == "__init__" else stmt.name
                out.append((f"{prefix}{stmt.name}", called, stmt, positional,
                            named))
                visit(stmt, f"{prefix}{stmt.name}.", None)
            else:
                visit(stmt, prefix, cls)

    visit(tree, "", None)
    return out


def unset_params(modules: dict, outside=()) -> list[str]:
    """The defaulted parameters of the defs of `modules` (module name ->
    source), as "module.def(param)", that no call in `modules` or in an
    `outside` source sets, by keyword or by position. A call matches every
    def of its called name's last part; a position at or past a *args is
    unknown and a **kwargs sets nothing. A call that passes on a defaulted
    parameter of the def it sits in, under its own name, sets the callee's
    parameter only where that one is set."""
    trees = [ast.parse(source) for source in (*modules.values(), *outside)]
    by_name, of_node = {}, {}
    for module, tree in zip(modules, trees):
        for qual, called, node, positional, named in defaulted_params(tree):
            of_node[node] = (f"{module}.{qual}", positional, named)
            by_name.setdefault(called, []).append(of_node[node])
    direct, forwards = set(), []

    def visit(node, enclosing):
        enclosing = of_node.get(node, enclosing)
        if isinstance(node, ast.Call):
            fn = node.func
            called = fn.attr if isinstance(fn, ast.Attribute) else getattr(
                fn, "id", None)
            for qual, positional, named in by_name.get(called, ()):
                given = [(kw.arg, kw.value) for kw in node.keywords if kw.arg]
                for param, arg in zip(positional, node.args):
                    if isinstance(arg, ast.Starred):
                        break
                    given.append((param, arg))
                for param, arg in given:
                    if param not in named:
                        continue
                    if (enclosing and isinstance(arg, ast.Name)
                            and arg.id in enclosing[2]):
                        forwards.append(((enclosing[0], arg.id),
                                         (qual, param)))
                    else:
                        direct.add((qual, param))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for tree in trees:
        visit(tree, None)
    reached, grown = direct, True
    while grown:
        more = {b for a, b in forwards if a in reached} - reached
        reached, grown = reached | more, bool(more)
    return sorted(f"{qual}({param})" for qual, _, named in of_node.values()
                  for param in named if (qual, param) not in reached)


# defaulted parameters that no call in the package or the benchmark sets,
# each kept for its reason
UNSET_ALLOWED = {
    "cli.main(argv)": "the entry point: the console script passes no "
                      "argv, and tests pass their own",
    "data.PropensityMatrix.clipped(floor)": "a public constructor",
    "models.surrogate_objective(weight_decay)": "the reference objective "
                                                "the gradient tests compare "
                                                "against",
    "models.imputation_objective(weight_decay)": "the reference objective "
                                                 "the gradient tests "
                                                 "compare against",
}


class TestSetParams:
    def test_checker_flags_unset_and_keeps_set(self):
        # f's by_pos is set by position, its by_kw by keyword in module b;
        # a *args hides the positions after it and **kwargs sets nothing;
        # passes_on sets f's kw_only through its own set z, not f's unset
        # through its unset y; C(3) and .method(2) count past self
        source = (
            "def f(a, by_pos=1, by_kw=2, unset=3, *, kw_only=4):\n"
            "    pass\n\n\n"
            "def passes_on(x, y=0, z=0):\n    f(x, unset=y, kw_only=z)\n\n\n"
            "class C:\n"
            "    def __init__(self, size=1):\n        pass\n\n"
            "    def method(self, step=1, skipped=2):\n        pass\n\n\n"
            "f(0, 1)\nf(*args, 9, 9)\nf(0, **options)\n"
            "passes_on(0, z=1)\nC(3).method(2)\n")
        modules = {"a": source, "b": "from a import f\nf(0, by_kw=5)\n"}
        assert unset_params(modules) == [
            "a.C.method(skipped)", "a.f(unset)", "a.passes_on(y)"]
        assert unset_params(modules, ["a.passes_on(0, 1)"]) == [
            "a.C.method(skipped)"]

    def test_every_defaulted_param_is_set(self):
        # an allowlisted parameter that is gone or has become set fails too
        modules = {p.stem: p.read_text() for p in SRC.glob("*.py")}
        outside = [p.read_text()
                   for p in (SRC.parents[1] / "perfbench").glob("*.py")]
        assert unset_params(modules, outside) == sorted(UNSET_ALLOWED)


def unread_fields(sources, class_names) -> dict:
    """Per named dataclass, its fields that no source reads as an attribute
    outside the class's own __post_init__. Matching is by attribute name."""
    trees = [ast.parse(source) for source in sources]
    fields = {}
    skip = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in class_names:
                fields[node.name] = [
                    stmt.target.id for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)]
                skip.update(id(sub) for stmt in node.body
                            if isinstance(stmt, ast.FunctionDef)
                            and stmt.name == "__post_init__"
                            for sub in ast.walk(stmt))
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load) and id(node) not in skip}
    return {cls: [name for name in names if name not in read]
            for cls, names in fields.items()}


class TestConfigFields:
    def test_checker_ignores_post_init_reads(self):
        source = ("class C:\n    a: int = 0\n    b: int = 0\n"
                  "    c: int = 0\n\n    def __post_init__(self):\n"
                  "        assert self.b\n\n\n"
                  "def f(cfg):\n    cfg.c = cfg.a\n")
        assert unread_fields([source], {"C"}) == {"C": ["b", "c"]}

    def test_every_config_field_is_read(self):
        sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
        classes = {"SgdConfig", "AltTrainConfig", "BenchmarkSpec", "LossKind"}
        assert unread_fields(sources, classes) == {
            name: [] for name in classes}


def unsettable_fields(classes, cli_source: str) -> dict:
    """Per dataclass, its fields that `read_fields` cannot read from config
    text and that no call of the class in cli_source passes by keyword."""
    passed = {}
    for node in ast.walk(ast.parse(cli_source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            passed.setdefault(node.func.id, set()).update(
                kw.arg for kw in node.keywords if kw.arg)

    def readable(cls, name):
        try:
            read_fields(cls, {name: "1"}, "field")
        except ValidationError:
            return False
        return True

    return {cls.__name__: [
        f.name for f in dataclasses.fields(cls)
        if not readable(cls, f.name)
        and f.name not in passed.get(cls.__name__, ())] for cls in classes}


@dataclasses.dataclass
class _Fields:
    count: int = 0
    rates: ErrorParams | None = None
    loss: LossKind | None = None


class TestSettableFields:
    def test_checker_flags_unread_unpassed_field(self):
        source = "_Fields(rates=r, **read_fields(_Fields, cfg, 'x'))\n"
        assert unsettable_fields([_Fields], source) == {"_Fields": ["loss"]}

    def test_every_config_field_is_settable(self):
        classes = [SgdConfig, AltTrainConfig, BenchmarkSpec]
        assert unsettable_fields(classes, (SRC / "cli.py").read_text()) == {
            cls.__name__: [] for cls in classes}


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    """The benchmark's tracer module, executed from its source; nothing is
    written next to it (no bytecode cache)."""
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def unresolved_targets(targets) -> list[str]:
    """The traced names that noisyrec does not define where the tracer looks
    them up: a callable module attribute, or a method in its class's own
    namespace."""
    missing = []
    for mod_name, attr, *_ in targets:
        owner = importlib.import_module(f"noisyrec.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(owner, cls_name, object))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{mod_name}.{attr}")
    return missing


class TestTracedNames:
    def test_checker_flags_missing_names(self):
        targets = [("models", "FactorModel.predict_all"),
                   ("models", "FactorModel.no_such_method"),
                   ("models", "NoSuchClass.predict_all"),
                   ("estimators", "estimate_ome_dr"),
                   ("estimators", "estimate_gone"),
                   ("estimators", "ESTIMATORS")]
        assert unresolved_targets(targets) == [
            "models.FactorModel.no_such_method",
            "models.NoSuchClass.predict_all", "estimators.estimate_gone",
            "estimators.ESTIMATORS"]

    def test_every_traced_name_resolves(self):
        targets = load_tracer().TARGETS
        assert ("models", "FactorModel.predict_all") in {
            t[:2] for t in targets}
        assert unresolved_targets(targets) == []


def benchmark_uses(source):
    """The noisyrec names a benchmark source uses, as (module, name, line,
    call), by line: every `<module>.<name>` of a module imported from
    noisyrec, every name imported from a noisyrec module and each of its
    uses, and every `(module, "<name>")` argument pair (the self-test's
    patches). `call` is (number of positional arguments, keyword names)
    where the name is called, with a `.call(fn, ...)` counted as a call of
    fn; else, or with *args or **kwargs, None."""
    tree = ast.parse(source)
    modules, names, imported = {}, {}, []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "noisyrec"):
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module == "noisyrec":
                    modules[local] = alias.name
                else:
                    names[local] = (node.module.split(".", 1)[1], alias.name)
                    imported.append((*names[local], node.lineno, None))

    def resolve(expr):
        if (isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name)
                and expr.value.id in modules):
            return modules[expr.value.id], expr.attr
        if isinstance(expr, ast.Name) and expr.id in names:
            return names[expr.id]
        return None

    uses = imported
    for node in ast.walk(tree):
        target = resolve(node)
        if target:
            uses.append((*target, node.lineno, None))
        if not isinstance(node, ast.Call):
            continue
        fn, args = node.func, node.args
        if (len(args) >= 2 and isinstance(args[0], ast.Name)
                and args[0].id in modules and isinstance(args[1], ast.Constant)
                and isinstance(args[1].value, str)):
            uses.append((modules[args[0].id], args[1].value, node.lineno,
                         None))
        if isinstance(fn, ast.Attribute) and fn.attr == "call" and args:
            fn, args = args[0], args[1:]
        target = resolve(fn)
        if (target and not any(isinstance(a, ast.Starred) for a in args)
                and all(kw.arg for kw in node.keywords)):
            uses.append((*target, node.lineno,
                         (len(args), [kw.arg for kw in node.keywords])))
    return sorted(uses, key=lambda use: use[2])


def broken_benchmark_uses(sources) -> list[str]:
    """The uses of `benchmark_uses` that noisyrec no longer serves: a name
    it does not define, or a call its signature does not bind."""
    broken = []
    for label, source in sources:
        for mod_name, name, line, call in benchmark_uses(source):
            where = f"{label}:{line} {mod_name}.{name}"
            owner = importlib.import_module(f"noisyrec.{mod_name}")
            if not hasattr(owner, name):
                broken.append(f"{where}: not defined")
                continue
            if call is None:
                continue
            n_args, keywords = call
            try:
                inspect.signature(getattr(owner, name)).bind(
                    *range(n_args), **dict.fromkeys(keywords))
            except TypeError as exc:
                broken.append(f"{where}: {exc}")
    return broken


class TestBenchmarkUses:
    def test_checker_flags_missing_names_and_unbound_calls(self):
        source = (
            "from noisyrec import models, noise\n"
            "from noisyrec.data import ErrorParams, NoSuchName\n"
            "noise.clamp_error_params(0.1, 0.2)\n"
            "noise.clamp_error_params(0.1)\n"
            "ctx.call(noise.identify_error_params, q, k_extreme=3)\n"
            "ctx.call(noise.identify_error_params, q, k=3)\n"
            "noise.clamp_error_params(*rates)\n"
            "patched(models, 'gone', nudge)\n"
            "ErrorParams(0.1, 0.2, 0.3)\n"
            "noise.extreme_cells\n")
        broken = broken_benchmark_uses([("src", source)])
        assert [b.split(":")[:2] for b in broken] == [
            ["src", "2 data.NoSuchName"], ["src", "4 noise.clamp_error_params"],
            ["src", "6 noise.identify_error_params"], ["src", "8 models.gone"],
            ["src", "9 data.ErrorParams"]]

    def test_every_benchmark_use_binds(self):
        sources = [(p.name, p.read_text())
                   for p in sorted(TRACER.parent.glob("*.py"))]
        uses = [u for _, s in sources for u in benchmark_uses(s)]
        assert ("noise", "identify_error_params") in {u[:2] for u in uses}
        assert any(u[:2] == ("models", "sgd_step_surrogate") and u[3]
                   for u in uses)
        assert broken_benchmark_uses(sources) == []
