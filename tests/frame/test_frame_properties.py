"""Property-based tests for the frame substrate (hypothesis)."""

import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frame import Frame, concat
from repro.frame.column import factorize_many
from repro.frame.io import to_string

from tests.frame.delim_reference import read_delimited_by_line

# Strategy: a small frame with an int key, a string key and a float value.
_keys = st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=40)
_safe_text = st.text(
    alphabet=st.characters(
        whitelist_categories=("L", "N"), max_codepoint=0x2FF
    ),
    min_size=0,
    max_size=6,
)


@st.composite
def frames(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    return Frame(
        {
            "k": draw(
                st.lists(
                    st.integers(min_value=-3, max_value=3), min_size=n, max_size=n
                )
            ),
            "s": np.array(
                draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=n, max_size=n)),
                dtype=object,
            ),
            "v": draw(
                st.lists(
                    st.floats(
                        allow_nan=False, allow_infinity=False, width=32
                    ),
                    min_size=n,
                    max_size=n,
                )
            ),
        }
    )


@given(frames())
def test_filter_take_equivalence(f):
    """filter(mask) and take(where(mask)) give identical frames."""
    mask = f["k"] > 0
    a, b = f.filter(mask), f.take(np.flatnonzero(mask))
    for c in f.columns:
        assert (a[c] == b[c]).all()


@given(frames())
def test_sort_is_permutation(f):
    s = f.sort_by("k", "s")
    assert sorted(s["k"]) == sorted(f["k"])
    ks = list(s["k"])
    assert ks == sorted(ks)


@given(frames())
def test_factorize_many_row_identity(f):
    """Two rows share a code iff all key columns agree."""
    if not f.num_rows:
        return
    codes, n = factorize_many([f["k"], f["s"]])
    assert codes.max() == n - 1
    pairs = list(zip(f["k"], f["s"]))
    for i in range(min(len(pairs), 15)):
        for j in range(i + 1, min(len(pairs), 15)):
            assert (codes[i] == codes[j]) == (pairs[i] == pairs[j])


@given(frames())
@settings(max_examples=50)
def test_io_roundtrip(f):
    back = read_delimited_by_line(io.StringIO(to_string(f)))
    assert back.num_rows == f.num_rows
    if f.num_rows:
        for c in f.columns:
            assert (back[c] == f[c]).all()


@given(frames(), frames())
@settings(max_examples=50)
def test_concat_length(f, g):
    assert concat([f, g]).num_rows == f.num_rows + g.num_rows


@given(frames())
def test_value_counts_total(f):
    if f.num_rows:
        vc = f.value_counts("s")
        assert vc["count"].sum() == f.num_rows
