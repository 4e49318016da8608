"""Unit tests for column coercion and factorization."""

import numpy as np
import pytest

from repro.frame.column import (
    as_column,
    factorize,
    factorize_many,
    is_string_kind,
)


class TestAsColumn:
    def test_list_of_ints(self):
        col = as_column([1, 2, 3])
        assert col.dtype.kind == "i"
        assert list(col) == [1, 2, 3]

    def test_list_of_floats(self):
        col = as_column([1.5, 2.5])
        assert col.dtype.kind == "f"

    def test_list_of_strings_becomes_object(self):
        col = as_column(["a", "bb"])
        assert col.dtype.kind == "O"
        assert list(col) == ["a", "bb"]

    def test_unicode_array_normalized_to_object(self):
        col = as_column(np.array(["a", "bb"], dtype="U2"))
        assert col.dtype.kind == "O"

    def test_object_assignment_does_not_truncate(self):
        col = as_column(["a", "bb"])
        col[0] = "a-very-long-string"
        assert col[0] == "a-very-long-string"

    def test_bool_column(self):
        col = as_column([True, False])
        assert col.dtype == bool

    def test_2d_rejected(self):
        with pytest.raises(TypeError, match="1-D"):
            as_column(np.zeros((2, 2)))

    def test_mixed_object_rejected(self):
        with pytest.raises(TypeError, match="non-string"):
            as_column(np.array(["a", 1], dtype=object))

    def test_empty(self):
        assert len(as_column([])) == 0


class TestKindPredicates:
    def test_string(self):
        assert is_string_kind(as_column(["a"]))
        assert not is_string_kind(as_column([1]))


class TestFactorize:
    def test_roundtrip(self):
        arr = np.array([3, 1, 3, 2, 1])
        codes, uniques = factorize(arr)
        assert (uniques[codes] == arr).all()

    def test_codes_dense_and_sorted(self):
        codes, uniques = factorize(np.array([30, 10, 20]))
        assert list(uniques) == [10, 20, 30]
        assert list(codes) == [2, 0, 1]

    def test_strings(self):
        codes, uniques = factorize(as_column(["b", "a", "b"]))
        assert list(uniques) == ["a", "b"]
        assert list(codes) == [1, 0, 1]


class TestFactorizeMany:
    def test_pairs_distinguished(self):
        a = np.array([1, 1, 2, 2])
        b = as_column(["x", "y", "x", "x"])
        codes, n = factorize_many([a, b])
        assert n == 3
        assert codes[2] == codes[3]
        assert len({codes[0], codes[1], codes[2]}) == 3

    def test_single_key_matches_factorize(self):
        arr = np.array([5, 5, 7])
        codes, n = factorize_many([arr])
        assert n == 2
        assert list(codes) == [0, 0, 1]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="share a length"):
            factorize_many([np.array([1]), np.array([1, 2])])

    def test_empty_key_list_rejected(self):
        with pytest.raises(ValueError):
            factorize_many([])

    def test_empty_arrays(self):
        codes, n = factorize_many([np.array([], dtype=np.int64)])
        assert n == 0
        assert len(codes) == 0

    def test_lexicographic_order(self):
        a = np.array([2, 1, 1])
        b = np.array([0, 9, 0])
        codes, n = factorize_many([a, b])
        # sorted tuples: (1,0) < (1,9) < (2,0)
        assert list(codes) == [2, 1, 0]


class TestFirstOccurrenceMask:
    def test_keeps_first_of_each_value(self):
        from repro.frame.column import first_occurrence_mask

        mask = first_occurrence_mask(np.array([3, 1, 3, 2, 1, 3]))
        assert list(mask) == [True, True, False, True, False, False]

    def test_object_values(self):
        from repro.frame.column import first_occurrence_mask

        mask = first_occurrence_mask(np.array(["b", "a", "b"], dtype=object))
        assert list(mask) == [True, True, False]

    def test_empty(self):
        from repro.frame.column import first_occurrence_mask

        assert list(first_occurrence_mask(np.array([]))) == []

    def test_all_unique(self):
        from repro.frame.column import first_occurrence_mask

        assert first_occurrence_mask(np.arange(5)).all()

    def test_keep_last_via_reversal(self):
        from repro.frame.column import first_occurrence_mask

        values = np.array([1, 2, 1, 2, 3])
        keep_last = first_occurrence_mask(values[::-1])[::-1]
        assert list(values[keep_last]) == [1, 2, 3]
        assert list(np.flatnonzero(keep_last)) == [2, 3, 4]
