import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import hadamard

from ompbounds import build_identity_hadamard, fwht
from oracles import DenseDictionary, dense_identity_hadamard, fwht_butterfly

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_build_m2_columns():
    d = build_identity_hadamard(2)
    cols = np.column_stack([d.column(j) for j in range(4)])
    expected = np.array(
        [[1.0, 0.0, INV_SQRT2, INV_SQRT2], [0.0, 1.0, INV_SQRT2, -INV_SQRT2]]
    )
    np.testing.assert_allclose(cols, expected, rtol=0, atol=1e-15)
    assert d.m == 2 and d.n == 4


@pytest.mark.parametrize("bad", [0, 1, 3, 6, -4, 2.0, "8"])
def test_build_rejects_bad_m(bad):
    with pytest.raises(ValueError):
        build_identity_hadamard(bad)


@pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096])
def test_coherence_closed_form(m):
    d = build_identity_hadamard(m)
    assert abs(d.mutual_coherence() - 1.0 / math.sqrt(m)) < 1e-12


@pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64])
def test_coherence_brute_force_agrees(m):
    d = build_identity_hadamard(m)
    brute = DenseDictionary(dense_identity_hadamard(d.m)).mutual_coherence()
    assert brute == pytest.approx(d.mutual_coherence(), abs=1e-14)


def test_coherence_orthonormal_is_zero():
    d = DenseDictionary(np.eye(5))
    assert d.mutual_coherence() == 0.0


def test_coherence_duplicate_column_is_one():
    a = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert DenseDictionary(a).mutual_coherence() == pytest.approx(1.0, abs=1e-15)


def test_column_identity_block():
    d = build_identity_hadamard(4)
    np.testing.assert_array_equal(d.column(1), [0.0, 1.0, 0.0, 0.0])


def test_column_first_hadamard():
    d = build_identity_hadamard(4)
    np.testing.assert_allclose(d.column(4), [0.5, 0.5, 0.5, 0.5], rtol=0, atol=0)


def test_column_matches_dense_sylvester():
    d = build_identity_hadamard(8)
    expected = hadamard(8)[:, 4] / math.sqrt(8.0)
    np.testing.assert_allclose(d.column(12), expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("j", [-1, 16])
def test_column_out_of_range(j):
    with pytest.raises(ValueError):
        build_identity_hadamard(8).column(j)


@pytest.mark.parametrize("m", [2, 8, 64])
def test_columns_unit_norm(m):
    d = build_identity_hadamard(m)
    for j in range(d.n):
        assert abs(np.linalg.norm(d.column(j)) - 1.0) < 1e-12


def test_correlate_basis_vector():
    d = build_identity_hadamard(4)
    r = np.array([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(
        d.correlate_all(r), [1, 0, 0, 0, 0.5, 0.5, 0.5, 0.5], rtol=0, atol=0
    )


def test_correlate_zero_vector():
    d = build_identity_hadamard(8)
    np.testing.assert_array_equal(d.correlate_all(np.zeros(8)), np.zeros(16))


@pytest.mark.parametrize("m", [16, 256, 1024])
def test_correlate_matches_dense(m):
    d = build_identity_hadamard(m)
    r = np.random.default_rng(m).normal(size=m)
    dense = dense_identity_hadamard(d.m).T @ r
    fast = d.correlate_all(r)
    np.testing.assert_allclose(fast, dense, rtol=1e-10, atol=1e-10 * np.abs(dense).max())


def test_correlate_batched_rows():
    d = build_identity_hadamard(16)
    rows = np.random.default_rng(0).normal(size=(5, 16))
    batched = d.correlate_all(rows)
    assert batched.shape == (5, 32)
    for i in range(5):
        np.testing.assert_array_equal(batched[i], d.correlate_all(rows[i]))


@pytest.mark.parametrize("lead", [(), (1,), (5,), (2, 3)], ids=str)
def test_correlate_into_out_buffer(lead):
    d = build_identity_hadamard(64)
    r = np.random.default_rng(len(lead)).normal(size=lead + (d.m,))
    buf = np.full(lead + (d.n,), np.nan)
    got = d.correlate_all(r, out=buf)
    assert got is buf
    assert np.shares_memory(got, buf)
    assert np.array_equal(got, d.correlate_all(r))


@pytest.mark.parametrize(
    "buf",
    [np.empty(31), np.empty(32, dtype=np.float32), np.empty(64)[::2], np.empty((2, 32))],
    ids=["short", "float32", "strided", "batched"],
)
def test_correlate_rejects_bad_out(buf):
    with pytest.raises(ValueError, match="out must be"):
        build_identity_hadamard(16).correlate_all(np.ones(16), out=buf)


@pytest.mark.parametrize("m", [2, 4, 16, 64])
def test_gram_is_exact(m):
    # [[I, H/sqrt(m)], [H/sqrt(m), I]], each entry taken from the dense
    # dictionary, where an inner product would round.
    d = build_identity_hadamard(m)
    a = dense_identity_hadamard(m)
    want = np.block([[np.eye(m), a[:, m:]], [a[:, m:].T, np.eye(m)]])
    every, each = np.tile(np.arange(2 * m), (2 * m, 1)), np.arange(2 * m)
    assert np.array_equal(d.gram(every, each), want)
    np.testing.assert_allclose(DenseDictionary(a).gram(every, each), want, rtol=0, atol=1e-15)
    # A batch of active sets against one new atom per row.
    support, j = np.array([[0, m, 2 * m - 1], [1, m - 1, m + 1]]), np.array([2 * m - 1, 2 % m])
    assert np.array_equal(d.gram(support, j), want[j[:, None], support])


@pytest.mark.parametrize("m", [2, 64, 1024])
def test_apply_rows_equal_matvec(m):
    d = build_identity_hadamard(m)
    s = np.random.default_rng(m).normal(size=(5, d.n))
    out = np.full((5, m), np.nan)
    assert d.apply(s, out=out) is out
    for row, want in zip(out, s):
        assert np.array_equal(row, d.matvec(want))
    np.testing.assert_allclose(out, s @ dense_identity_hadamard(m).T, rtol=0, atol=1e-13)


@pytest.mark.parametrize("m", [2, 64, 1024])
def test_stacked_matvec_rows_equal_vectors_alone(m):
    d = build_identity_hadamard(m)
    s = np.random.default_rng(m + 1).normal(size=(21, d.n))
    got = d.matvec(s)
    assert got.shape == (21, m)
    for row, want in zip(got, s):
        assert np.array_equal(row, d.matvec(want))


@pytest.mark.parametrize(
    "shape", [(), (15,), (17,), (3, 15), (2, 3, 16), (0,)], ids=str
)
@pytest.mark.parametrize("dictionary", ["identity_hadamard", "dense"])
def test_matvec_refuses_any_other_shape_with_one_message(dictionary, shape):
    # m = 8, n = 16: the dense oracle follows the same contract.
    d = build_identity_hadamard(8)
    if dictionary == "dense":
        d = DenseDictionary(dense_identity_hadamard(8))
    message = f"coefficient shape {shape} is neither (16,) nor (B, 16)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        d.matvec(np.zeros(shape))


@pytest.mark.parametrize(
    "buf",
    [np.empty((2, 16), dtype=np.float32), np.empty((2, 32))[:, ::2], np.empty((2, 8)),
     np.empty(16)],
    ids=["float32", "strided", "short", "unbatched"],
)
def test_apply_rejects_bad_out(buf):
    # A float32 out was filled with rounded values and returned.
    s = np.random.default_rng(0).normal(size=(2, 32))
    before = buf.copy()
    message = "out must be a C-contiguous float64 array of shape (2, 16)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_identity_hadamard(16).apply(s, out=buf)
    assert np.array_equal(buf, before, equal_nan=True)


@pytest.mark.parametrize("shape", [(31,), (5, 33), (0,), ()], ids=str)
def test_apply_refuses_a_last_axis_other_than_n(shape):
    # A length-31 s at m = 16 failed inside numpy: "cannot reshape array of
    # size 15 into shape (4,4)".
    message = f"last axis of shape {shape} must have length n=32"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_identity_hadamard(16).apply(np.zeros(shape))


@pytest.mark.parametrize("lead", [(), (5,)], ids=str)
def test_dense_correlate_into_out_buffer(lead):
    d = DenseDictionary(np.random.default_rng(3).normal(size=(6, 10)))
    r = np.random.default_rng(len(lead)).normal(size=lead + (d.m,))
    buf = np.full(lead + (d.n,), np.nan)
    assert d.correlate_all(r, out=buf) is buf
    assert np.array_equal(buf, d.correlate_all(r))
    with pytest.raises(ValueError, match="out must be"):
        d.correlate_all(r, out=np.empty(lead + (2 * d.n,))[..., ::2])


def test_correlate_length_mismatch():
    with pytest.raises(ValueError):
        build_identity_hadamard(8).correlate_all(np.zeros(9))


def test_matvec_matches_dense():
    d = build_identity_hadamard(32)
    s = np.random.default_rng(1).normal(size=64)
    dense = dense_identity_hadamard(d.m)
    np.testing.assert_allclose(d.matvec(s), dense @ s, rtol=1e-12, atol=1e-12)


@settings(deadline=None, max_examples=50)
@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_fwht_involution(log2n, seed):
    n = 2**log2n
    v = np.random.default_rng(seed).normal(size=n)
    back = fwht(fwht(v))
    np.testing.assert_allclose(back, n * v, rtol=1e-10, atol=1e-10)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=0, max_value=13),
    st.sampled_from([(), (1,), (3,), (2, 2)]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_fwht_matches_butterfly_oracle(log2n, lead, seed):
    # Odd log2(n) gives unequal Kronecker factors (q = 2p).  Every
    # output is a signed sum of the n inputs, so each ordering of that sum
    # lies within n * eps * ||x||_1 of the exact value.
    n = 2**log2n
    x = np.random.default_rng(seed).normal(size=lead + (n,))
    got = fwht(x)
    assert got.shape == x.shape
    tol = n * np.finfo(np.float64).eps * np.abs(x).sum(axis=-1, keepdims=True)
    assert np.all(np.abs(got - fwht_butterfly(x)) <= tol)


@pytest.mark.parametrize("m", [2, 8, 2048])
def test_columns_bit_identical_to_dense(m):
    # The oracle builds H with the butterfly, which shares no code with column().
    d = build_identity_hadamard(m)
    dense = dense_identity_hadamard(d.m)
    for j in range(d.n):
        assert np.array_equal(d.column(j), dense[:, j]), j


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=1, max_value=12),
    st.sampled_from([(1,), (2,), (5,), (2, 3)]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_correlate_batched_equals_row_by_row(log2m, lead, seed):
    # The Hadamard half is written into a view of the preallocated result;
    # a reshape that copied would leave that half unwritten.
    d = build_identity_hadamard(2**log2m)
    rows = np.random.default_rng(seed).normal(size=lead + (d.m,))
    batched = d.correlate_all(rows)
    assert batched.shape == lead + (d.n,)
    for idx in np.ndindex(*lead):
        assert np.array_equal(batched[idx], d.correlate_all(rows[idx]))


@pytest.mark.parametrize("m", [1, 2, 4, 8, 16, 32, 64])
def test_fwht_equals_hadamard_matrix(m):
    np.testing.assert_array_equal(fwht(np.eye(m)), hadamard(m).astype(float))


@pytest.mark.parametrize("n", [0, 3, 6, 12])
def test_fwht_rejects_bad_length(n):
    with pytest.raises(ValueError):
        fwht(np.zeros(n))
