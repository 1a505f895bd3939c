"""CSV loading, the standardization pipeline, and covariance round-trips."""

import csv
import tracemalloc

import numpy as np
import pytest

from wcpca import (
    ConstantColumn,
    EmptyData,
    InvalidInput,
    SchemaError,
    explained_variance_table,
    load_covariances,
    load_csv,
    load_masked_csv,
    make_rng,
    masked_dataset_from_blocks,
    preprocess,
    save_covariances,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def table_csv(tmp_path):
    return write(
        tmp_path / "data.csv",
        "site,x,y,z\n"
        "a,1,2,3\n"
        "a,2,4,5\n"
        "a,0,1,2\n"
        "b,5,5,5\n"
        "b,7,3,1\n",
    )


class TestLoadCsv:
    def test_happy_path(self, table_csv):
        raw = load_csv(table_csv, "site")
        assert raw.feature_names == ("x", "y", "z")
        assert raw.domain_col == "site"
        assert sorted(raw.blocks) == ["a", "b"]
        assert raw.blocks["a"].shape == (3, 3)
        assert raw.dropped_rows == 0
        np.testing.assert_array_equal(raw.blocks["b"][1], [7.0, 3.0, 1.0])

    def test_counts_dropped_rows(self, tmp_path):
        path = write(
            tmp_path / "messy.csv",
            "site,x,y\n"
            "a,1,2\n"
            "a,oops,2\n"
            "a,3,4\n"
            ",9,9\n"
            "a,inf,1\n"
            "b,1,1\n"
            "b,2,2\n",
        )
        raw = load_csv(path, "site")
        assert raw.dropped_rows == 3
        assert raw.blocks["a"].shape == (2, 2)

    def test_feature_subset(self, table_csv):
        raw = load_csv(table_csv, "site", feature_cols=["z", "x"])
        assert raw.feature_names == ("z", "x")

    def test_domain_too_small(self, tmp_path):
        path = write(tmp_path / "tiny.csv", "site,x,y\na,1,2\na,3,4\nb,5,6\n")
        with pytest.raises(SchemaError, match="'b'"):
            load_csv(path, "site")

    def test_missing_domain_column(self, table_csv):
        with pytest.raises(SchemaError):
            load_csv(table_csv, "plot")

    def test_missing_feature_column(self, table_csv):
        with pytest.raises(SchemaError):
            load_csv(table_csv, "site", feature_cols=["x", "w"])

    def test_no_usable_rows(self, tmp_path):
        path = write(tmp_path / "bad.csv", "site,x,y\na,nan,1\nb,oops,2\n")
        with pytest.raises(EmptyData):
            load_csv(path, "site")

    def test_too_few_features(self, tmp_path):
        path = write(tmp_path / "narrow.csv", "site,x\na,1\na,2\n")
        with pytest.raises(SchemaError):
            load_csv(path, "site")

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError):
            load_csv(str(tmp_path / "nope.csv"), "site")


class TestPreprocess:
    def test_pooled_variance_is_one(self, table_csv):
        pre = preprocess(load_csv(table_csv, "site"))
        n_tot = sum(b.shape[0] for b in pre.blocks.values())
        pooled = sum(
            d.n * np.diag(d.covariance) for d in pre.collection
        )
        np.testing.assert_allclose(pooled / n_tot, 1.0, atol=1e-12)

    def test_blocks_are_centered(self, table_csv):
        pre = preprocess(load_csv(table_csv, "site"))
        for block in pre.blocks.values():
            np.testing.assert_allclose(block.mean(axis=0), 0.0, atol=1e-12)

    def test_weights_proportional_to_rows(self, table_csv):
        pre = preprocess(load_csv(table_csv, "site"))
        by_id = {d.id: d for d in pre.collection}
        assert by_id["a"].weight == pytest.approx(3 / 5)
        assert by_id["b"].weight == pytest.approx(2 / 5)

    def test_constant_column_named(self, tmp_path):
        path = write(
            tmp_path / "flat.csv", "site,x,y\na,1,7\na,2,7\nb,3,7\nb,4,7\n"
        )
        with pytest.raises(ConstantColumn, match="'y'"):
            preprocess(load_csv(path, "site"))

    def test_covariances_match_blocks(self, table_csv):
        pre = preprocess(load_csv(table_csv, "site"))
        for d in pre.collection:
            z = pre.blocks[d.id]
            np.testing.assert_allclose(d.covariance, z.T @ z / z.shape[0], atol=1e-14)


class TestExplainedVarianceTable:
    def test_structure_and_cumulation(self, example1):
        frame = np.eye(3, 2)
        rows = explained_variance_table(frame, example1)
        assert len(rows) == 4
        assert set(rows[0]) == {"domain", "components", "explained_variance"}
        first = [r for r in rows if r["domain"] == "a"]
        assert first[0]["components"] == 1
        assert first[0]["explained_variance"] == pytest.approx(0.9)
        assert first[1]["explained_variance"] == pytest.approx(1.0)

    def test_dimension_mismatch(self, example1):
        with pytest.raises(InvalidInput):
            explained_variance_table(np.eye(4, 2), example1)


class TestCovarianceRoundTrip:
    def test_bit_exact(self, tmp_path, example1):
        manifest = save_covariances(example1, str(tmp_path / "covs"), ["x", "y", "z"])
        loaded, names = load_covariances(manifest)
        assert names == ("x", "y", "z")
        for orig, back in zip(example1, loaded):
            assert back.id == orig.id
            assert back.weight == orig.weight
            np.testing.assert_array_equal(back.covariance, orig.covariance)

    def test_loads_from_directory(self, tmp_path, example1):
        out = str(tmp_path / "covs")
        save_covariances(example1, out)
        loaded, names = load_covariances(out)
        assert names is None
        assert [d.id for d in loaded] == [d.id for d in example1]

    def test_irrational_entries_survive(self, tmp_path):
        from wcpca import DomainCollection, DomainSpec

        rng = make_rng(60)
        a = rng.normal(size=(4, 4))
        coll = DomainCollection(
            (DomainSpec(id="r", covariance=(a @ a.T) / 3.0),)
        )
        manifest = save_covariances(coll, str(tmp_path / "c"))
        loaded, _ = load_covariances(manifest)
        np.testing.assert_array_equal(loaded[0].covariance, coll[0].covariance)

    def test_missing_weight_defaults_uniform(self, tmp_path, example1):
        import json

        manifest = save_covariances(example1, str(tmp_path / "covs"))
        with open(manifest, encoding="utf-8") as fh:
            doc = json.load(fh)
        for entry in doc["domains"]:
            del entry["weight"]
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        loaded, _ = load_covariances(manifest)
        assert all(d.weight == pytest.approx(0.5) for d in loaded)

    def test_column_names_must_match_dimension(self, tmp_path, example1):
        import json

        with pytest.raises(InvalidInput, match="1 feature names for dimension 3"):
            save_covariances(example1, str(tmp_path / "short"), ["x"])
        assert not (tmp_path / "short").exists()
        manifest = save_covariances(example1, str(tmp_path / "covs"), ["x", "y", "z"])
        with open(manifest, encoding="utf-8") as fh:
            doc = json.load(fh)
        for names in (["x"], ["w", "x", "y", "z"]):
            doc["columns"] = names
            with open(manifest, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            with pytest.raises(SchemaError, match=f"names {len(names)} columns for dimension 3"):
                load_covariances(manifest)

    def test_bad_manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_covariances(str(path))
        path.write_text('{"domains": []}', encoding="utf-8")
        with pytest.raises(SchemaError):
            load_covariances(str(path))


class TestMaskedCsv:
    def test_blank_and_nonnumeric_cells_masked(self, tmp_path):
        path = write(
            tmp_path / "m.csv",
            "site,x,y,z\n"
            "a,1,,3\n"
            "a,,nan,6\n"
            "b,7,8,9\n",
        )
        features, blocks = load_masked_csv(path, "site")
        assert features == ("x", "y", "z")
        x, mask = blocks["a"]
        np.testing.assert_array_equal(mask, [[1, 0, 1], [0, 0, 1]])
        np.testing.assert_array_equal(x, [[1, 0, 3], [0, 0, 6]])
        _, mask_b = blocks["b"]
        np.testing.assert_array_equal(mask_b, [[1, 1, 1]])

    def test_dataset_rejects_all_masked_row(self, tmp_path):
        path = write(tmp_path / "m.csv", "site,x,y\na,,\na,1,2\n")
        _, blocks = load_masked_csv(path, "site")
        with pytest.raises(InvalidInput):
            masked_dataset_from_blocks(blocks)

    def test_dataset_construction(self, tmp_path):
        path = write(tmp_path / "m.csv", "site,x,y\na,1,\nb,3,4\n")
        _, blocks = load_masked_csv(path, "site")
        data = masked_dataset_from_blocks(blocks)
        assert [d.id for d in data] == ["a", "b"]
        assert data.p == 2

    def test_dataset_construction_copies_and_keeps_blocks(self, tmp_path):
        path = write(tmp_path / "m.csv", "site,x,y\na,1,\nb,3,4\n")
        _, blocks = load_masked_csv(path, "site")
        x, mask = blocks["a"]
        data = masked_dataset_from_blocks(blocks)
        assert list(blocks) == ["a", "b"] and blocks["a"][0] is x
        assert not np.shares_memory(data[0].x, x)
        assert not np.shares_memory(data[0].mask, mask)

    def test_loader_holds_no_python_floats(self, tmp_path):
        # 2 domains x 1000 rows x 50 cells, a fifth missing: the parsed rows
        # go straight into float64 buffers, so the traced peak stays near
        # the returned x and mask (about 1.2 units of n x p x 8 bytes);
        # per-label lists of Python float rows took about 5.7 units
        rng = np.random.default_rng(3)
        lines = ["site," + ",".join(f"f{j}" for j in range(50))]
        for label in ("a", "b"):
            for row in rng.normal(size=(1000, 50)).tolist():
                lines.append(label + "," + ",".join("" if v < -0.85 else f"{v:.6f}" for v in row))
        path = write(tmp_path / "big.csv", "\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            _, blocks = load_masked_csv(path, "site")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(mask.dtype == bool for _, mask in blocks.values())
        assert peak < 2.0 * 2 * 1000 * 50 * 8


def reference_masked_csv(path, domain_col):
    """Scalar reference loader: one DictReader record and one float() per cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        features = [c for c in reader.fieldnames if c != domain_col]
        rows = {}
        for record in reader:
            label = record.get(domain_col)
            label = "" if label is None else label
            values, observed = [], []
            for c in features:
                try:
                    v = float(record.get(c))
                except (TypeError, ValueError):
                    v = np.nan
                ok = bool(np.isfinite(v))
                values.append(v if ok else 0.0)
                observed.append(1.0 if ok else 0.0)
            rows.setdefault(label, []).append((values, observed))
    blocks = {
        label: (np.array([r[0] for r in rs]), np.array([r[1] for r in rs]))
        for label, rs in rows.items()
    }
    return tuple(features), blocks


def reference_csv(path, domain_col):
    """Scalar reference for load_csv's drop rule; returns (blocks, dropped)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        features = [c for c in reader.fieldnames if c != domain_col]
        rows, dropped = {}, 0
        for record in reader:
            label = record.get(domain_col)
            try:
                values = [float(record[c]) for c in features]
            except (TypeError, ValueError):
                values = None
            if not label or values is None or not all(np.isfinite(values)):
                dropped += 1
                continue
            rows.setdefault(label, []).append(values)
    return {label: np.array(rs) for label, rs in rows.items()}, dropped


EDGE_CSV = (
    "site,x,y,z\n"
    "a,1,inf,3\n"
    "b,1e999,nan,-inf\n"
    "a, 2 ,abc,-0\n"
    "\n"
    "c,4\n"
    "b\n"
    "a,5,6,7,8,9\n"
    ",1,2,3\n"
    "b,NaN,+1.5e-3,1_0\n"
    "\n"
    "c,1,2,3\n"
    "a,7,8,9\n"
)


def assert_identical(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def assert_masked_identical(path):
    features, blocks = load_masked_csv(path, "site")
    ref_features, ref_blocks = reference_masked_csv(path, "site")
    assert features == ref_features
    assert list(blocks) == list(ref_blocks)
    for label, (ref_x, ref_mask) in ref_blocks.items():
        assert_identical(blocks[label][0], ref_x)
        # masks are boolean: the reference's 0/1 floats, cast
        assert_identical(blocks[label][1], ref_mask.astype(bool))
    return blocks


class TestRowReader:
    def test_masked_edge_cases_match_reference(self, tmp_path):
        blocks = assert_masked_identical(write(tmp_path / "edge.csv", EDGE_CSV))
        assert list(blocks) == ["a", "b", "c", ""]
        x, mask = blocks["a"]
        np.testing.assert_array_equal(mask, [[1, 0, 1], [1, 0, 1], [1, 1, 1], [1, 1, 1]])
        assert np.signbit(x[1, 2])  # "-0" is observed as negative zero

    def test_masked_duplicate_header_reads_last_column(self, tmp_path):
        blocks = assert_masked_identical(write(tmp_path / "dup.csv", "site,x,y,x\na,1,2,3\na,4,5\n"))
        x, mask = blocks["a"]
        np.testing.assert_array_equal(x, [[3, 2, 3], [0, 5, 0]])
        np.testing.assert_array_equal(mask, [[1, 1, 1], [0, 1, 0]])

    def test_masked_random_files_match_reference(self, tmp_path):
        rng = np.random.default_rng(17)
        tokens = ["1", "-2.5", "", "inf", "1e999", "nan", " 2 ", "abc", "-0", "1e-320"]
        for f in range(20):
            lines = ["x,site,y,z"]
            for _ in range(15):
                cells = [str(c) for c in rng.choice(tokens, size=int(rng.integers(0, 6)))]
                if len(cells) > 1:
                    cells.insert(1, str(rng.choice(["a", "b", ""])))
                lines.append(",".join(cells))
            assert_masked_identical(write(tmp_path / f"r{f}.csv", "\n".join(lines) + "\n"))

    def test_load_csv_matches_reference(self, tmp_path):
        # "b" first appears on a dropped row; block order follows kept rows
        path = write(
            tmp_path / "drop.csv",
            "site,x,y\n"
            "b,inf,1\n"
            "a,1,2\n"
            "a, 3 ,4,extra\n"
            "\n"
            "b,5,6\n"
            "a,abc,1\n"
            ",1,1\n"
            "b\n"
            "b,1e999,2\n"
            "b,-0,7\n",
        )
        raw = load_csv(path, "site")
        ref_blocks, ref_dropped = reference_csv(path, "site")
        assert raw.dropped_rows == ref_dropped == 5
        assert list(raw.blocks) == list(ref_blocks) == ["a", "b"]
        for label, ref in ref_blocks.items():
            assert_identical(raw.blocks[label], ref)
