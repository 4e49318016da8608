"""Unit tests for the Frame container."""

import numpy as np
import pytest

from repro.frame import Frame, concat


@pytest.fixture
def jobs():
    return Frame(
        {
            "job_id": [4, 1, 3, 2, 5],
            "user": ["alice", "bob", "alice", "carol", "bob"],
            "size": [64, 1, 16, 1, 4],
            "runtime": [100.0, 50.0, 200.0, 25.0, 75.0],
        }
    )


class TestConstruction:
    def test_empty(self):
        f = Frame()
        assert f.num_rows == 0
        assert f.num_columns == 0
        assert len(f) == 0

    def test_columns_order_preserved(self, jobs):
        assert jobs.columns == ["job_id", "user", "size", "runtime"]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            Frame({"a": [1, 2], "b": [1]})

    def test_from_rows_roundtrip(self, jobs):
        f2 = Frame.from_rows(jobs.to_rows())
        for c in jobs.columns:
            assert (f2.col(c) == jobs.col(c)).all()

    def test_from_rows_empty_with_columns(self):
        f = Frame.from_rows([], columns=["a", "b"])
        assert f.columns == ["a", "b"]
        assert f.num_rows == 0

    def test_row_unboxes_scalars(self, jobs):
        r = jobs.row(0)
        assert isinstance(r["job_id"], int)
        assert isinstance(r["runtime"], float)
        assert r["user"] == "alice"

    def test_repr_mentions_row_count(self, jobs):
        assert "5 rows" in repr(jobs)


class TestAccess:
    def test_col_missing_raises_with_names(self, jobs):
        with pytest.raises(KeyError, match="job_id"):
            jobs.col("nope")

    def test_getitem_str(self, jobs):
        assert (jobs["size"] == jobs.col("size")).all()

    def test_getitem_list_projects(self, jobs):
        sub = jobs[["user", "size"]]
        assert sub.columns == ["user", "size"]
        assert sub.num_rows == 5

    def test_getitem_mask(self, jobs):
        sub = jobs[jobs["size"] > 8]
        assert sub.num_rows == 2

    def test_getitem_indices(self, jobs):
        sub = jobs[np.array([0, 0, 1])]
        assert list(sub["job_id"]) == [4, 4, 1]

    def test_contains(self, jobs):
        assert "user" in jobs
        assert "nope" not in jobs


class TestDerivation:
    def test_with_column_adds(self, jobs):
        f2 = jobs.with_column("midplanes", jobs["size"] // 1)
        assert "midplanes" in f2
        assert "midplanes" not in jobs  # original untouched

    def test_with_column_replaces(self, jobs):
        f2 = jobs.with_column("size", jobs["size"] * 2)
        assert f2["size"][0] == 128
        assert jobs["size"][0] == 64

    def test_with_column_length_checked(self, jobs):
        with pytest.raises(ValueError):
            jobs.with_column("x", [1, 2])

    def test_drop(self, jobs):
        f2 = jobs.drop("runtime", "user")
        assert f2.columns == ["job_id", "size"]

    def test_drop_missing_raises(self, jobs):
        with pytest.raises(KeyError):
            jobs.drop("nope")


class TestRowOps:
    def test_filter(self, jobs):
        small = jobs.filter(jobs["size"] <= 4)
        assert set(small["job_id"]) == {1, 2, 5}

    def test_filter_requires_bool(self, jobs):
        with pytest.raises(TypeError):
            jobs.filter(np.array([1, 0, 1, 0, 1]))

    def test_filter_length_checked(self, jobs):
        with pytest.raises(ValueError):
            jobs.filter(np.array([True]))

    def test_take_repeats(self, jobs):
        f2 = jobs.take(np.array([1, 1]))
        assert list(f2["user"]) == ["bob", "bob"]

    def test_sort_single_key(self, jobs):
        assert list(jobs.sort_by("job_id")["job_id"]) == [1, 2, 3, 4, 5]

    def test_sort_descending(self, jobs):
        assert list(jobs.sort_by("job_id", ascending=False)["job_id"]) == [5, 4, 3, 2, 1]

    def test_sort_multi_key_primary_first(self, jobs):
        s = jobs.sort_by("user", "size")
        assert list(s["user"]) == ["alice", "alice", "bob", "bob", "carol"]
        alice = s.filter(s.mask_eq("user", "alice"))
        assert list(alice["size"]) == [16, 64]

    def test_sort_is_stable(self):
        f = Frame({"k": [1, 1, 1], "v": [3, 1, 2]})
        assert list(f.sort_by("k")["v"]) == [3, 1, 2]

    def test_head_tail(self, jobs):
        assert jobs.head(2).num_rows == 2
        assert list(jobs.head(2)["job_id"]) == [4, 1]

    def test_head_beyond_length(self, jobs):
        assert jobs.head(100).num_rows == 5


class TestSummaries:
    def test_unique_sorted(self, jobs):
        assert list(jobs.unique("user")) == ["alice", "bob", "carol"]

    def test_nunique(self, jobs):
        assert jobs.nunique("user") == 3

    def test_value_counts_descending(self, jobs):
        vc = jobs.value_counts("user")
        counts = list(vc["count"])
        assert counts == sorted(counts, reverse=True)
        assert vc.row(0)["count"] == 2

    def test_mask_isin_strings(self, jobs):
        m = jobs.mask_isin("user", ["alice", "carol"])
        assert m.sum() == 3

    def test_mask_isin_ints(self, jobs):
        m = jobs.mask_isin("size", [1])
        assert m.sum() == 2

    def test_mask_isin_empty(self, jobs):
        assert jobs.mask_isin("user", []).sum() == 0

    def test_mask_eq(self, jobs):
        assert jobs.mask_eq("user", "bob").sum() == 2


class TestConcat:
    def test_concat_stacks(self, jobs):
        both = concat([jobs, jobs])
        assert both.num_rows == 10

    def test_concat_empty_list(self):
        assert concat([]).num_rows == 0

    def test_concat_mismatch_rejected(self, jobs):
        with pytest.raises(ValueError, match="mismatch"):
            concat([jobs, Frame({"x": [1]})])

    def test_concat_skips_empty_frames(self, jobs):
        assert concat([Frame(), jobs]).num_rows == 5


class TestFromRowsDtypes:
    def test_empty_with_dtype_hints(self):
        f = Frame.from_rows(
            [],
            columns=["id", "name", "t"],
            dtypes={"id": np.int64, "name": object, "t": np.float64},
        )
        assert f.num_rows == 0
        assert f["id"].dtype == np.int64
        assert f["name"].dtype == object
        assert f["t"].dtype == np.float64

    def test_empty_defaults_to_float64(self):
        f = Frame.from_rows([], columns=["x", "y"])
        assert f["x"].dtype == np.float64
        assert f["y"].dtype == np.float64

    def test_nonempty_rows_honor_hints(self):
        # the hint pins the dtype whether or not rows are present —
        # before the shard-merge fix it was silently ignored here
        f = Frame.from_rows(
            [{"id": 1}, {"id": 2}], columns=["id"], dtypes={"id": np.float64}
        )
        assert f["id"].dtype == np.float64
        assert list(f["id"]) == [1.0, 2.0]

    def test_nonempty_rows_without_hints_keep_inference(self):
        f = Frame.from_rows([{"id": 1}, {"id": 2}], columns=["id"])
        assert f["id"].dtype == np.int64

    def test_all_null_column_with_float_hint_becomes_nan(self):
        # empty shards merge as None cells; a float hint keeps the
        # column numeric instead of drifting to object dtype
        f = Frame.from_rows(
            [{"m": "a", "x": None}, {"m": "b", "x": None}],
            columns=["m", "x"],
            dtypes={"m": object, "x": np.float64},
        )
        assert f["x"].dtype == np.float64
        assert np.isnan(f["x"]).all()

    def test_partial_null_column_with_float_hint(self):
        f = Frame.from_rows(
            [{"x": 1.5}, {"x": None}], columns=["x"], dtypes={"x": np.float64}
        )
        assert f["x"].dtype == np.float64
        assert f["x"][0] == 1.5 and np.isnan(f["x"][1])

    def test_null_under_int_hint_raises(self):
        # int64 cannot represent null: silent promotion to float64 was
        # the dtype-drift bug, and silently dropping the hint was worse
        with pytest.raises(ValueError, match="null"):
            Frame.from_rows(
                [{"n": 1}, {"n": None}], columns=["n"], dtypes={"n": np.int64}
            )

    def test_all_null_without_hint_stays_object(self):
        f = Frame.from_rows([{"x": None}], columns=["x"])
        assert f["x"].dtype == object

    def test_empty_frame_concats_with_typed_frame(self):
        empty = Frame.from_rows(
            [], columns=["id", "name"], dtypes={"id": np.int64, "name": object}
        )
        full = Frame({"id": np.array([1, 2]), "name": ["a", "b"]})
        both = concat([empty, full])
        assert both.num_rows == 2
        assert both["id"].dtype == np.int64
        assert both["name"].dtype == object

    def test_zero_length_part_does_not_poison_dtype(self):
        # an untyped empty frame (float64 columns) must not drag an
        # int64 column to float, nor an object column to something else
        empty = Frame.from_rows([], columns=["id"])
        full = Frame({"id": np.array([1, 2], dtype=np.int64)})
        assert concat([empty, full])["id"].dtype == np.int64
        assert concat([full, empty])["id"].dtype == np.int64

