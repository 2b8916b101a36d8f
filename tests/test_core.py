import ast
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisyrec.data import (
    DEFAULT_PROPENSITY_FLOOR,
    EPS_RHO,
    ErrorParams,
    PredictionMatrix,
    PropensityMatrix,
    RatingDataset,
    ValidationError,
    dataset_from_triples,
    load_dataset_triples,
    make_rng,
    save_dataset_triples,
    validate_dataset,
)


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

    def test_unobserved_cells_ignore_rating_values(self):
        ratings = np.array([[7, 0], [0, 0]], dtype=np.int8)
        mask = np.array([[0, 1], [1, 1]], dtype=np.int8)
        d = RatingDataset(2, 2, mask, ratings)
        assert validate_dataset(d) == []


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
        # the estimate/sweep policy: lower the floor to the smallest entry
        floor = min(float(np.min(p)), DEFAULT_PROPENSITY_FLOOR)
        with pytest.raises(ValidationError, match=r"\(0, 1\]"):
            PropensityMatrix(p, floor=floor)
        with pytest.raises(ValidationError):
            PropensityMatrix(p, floor=0.0)

    def test_prediction_open_interval(self):
        with pytest.raises(ValidationError):
            PredictionMatrix(np.array([[0.0, 0.5]]))


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
        ratings = (rng.random((6, 9)) < 0.4).astype(np.int8) * mask
        d = RatingDataset(6, 9, mask, ratings)
        path = tmp_path / "data.tsv"
        save_dataset_triples(path, d)
        loaded = load_dataset_triples(path, n_users=6, n_items=9)
        assert np.array_equal(loaded.observed_mask, d.observed_mask)
        assert np.array_equal(
            loaded.observed_ratings * loaded.observed_mask,
            d.observed_ratings * d.observed_mask)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\t0\t1\nnot a line\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_dataset_triples(path)

    def test_negative_index_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\t0\t1\n-1\t2\t0\n")
        with pytest.raises(ValidationError, match="line 2: negative user"):
            load_dataset_triples(path)

    @pytest.mark.parametrize("name", ["user", "item"])
    def test_index_past_explicit_universe_rejected(self, tmp_path, name):
        path = tmp_path / "bad.tsv"
        line = "6\t0\t1" if name == "user" else "0\t9\t1"
        path.write_text(f"0\t0\t1\n{line}\n")
        with pytest.raises(ValidationError, match=f"line 2: {name} index"):
            load_dataset_triples(path, n_users=6, n_items=9)

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
        mask = np.zeros((n, m), dtype=np.int8)
        obs = np.zeros((n, m), dtype=np.int8)
        mask[users, items] = 1
        obs[users, items] = ratings
        built = dataset_from_triples(users, items, ratings, n, m)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.tsv"
            path.write_text("".join(f"{u}\t{i}\t{r}\n"
                                    for u, i, r in zip(users, items, ratings)))
            loaded = load_dataset_triples(path, n_users=n, n_items=m)
        for d in (built, loaded):
            assert d.shape == (n, m)
            assert np.array_equal(d.observed_mask, mask)
            assert np.array_equal(d.observed_ratings, obs)

    def test_dataset_from_triples_sizes_universe(self):
        d = dataset_from_triples([0, 2], [1, 0], [1, 0])
        assert d.shape == (3, 2)
        assert np.array_equal(d.observed_mask, [[0, 1], [0, 0], [1, 0]])
        assert np.array_equal(d.observed_ratings, [[0, 1], [0, 0], [0, 0]])
        assert dataset_from_triples([0], [0], [1], 2, 4).shape == (2, 4)


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
        assert unread_fields(sources, {"SgdConfig", "AltTrainConfig"}) == {
            "SgdConfig": [], "AltTrainConfig": []}
