"""ratex.lapack against np.linalg: bitwise the same results on float64 and
complex128 stacks of the shapes ratex uses, and the same errors."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratex
from ratex import lapack


def same(got, want):
    """Equal dtype, shape and bytes (so -0.0 and 0.0 differ, NaN equals NaN)."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype, got.shape) == (want.dtype, want.shape) and got.tobytes() == want.tobytes()


def stack(rng, S, rows, cols, dtype):
    a = rng.standard_normal((S, rows, cols))
    if dtype == "complex128":
        a = a + 1j * rng.standard_normal((S, rows, cols))
    return a


CASES = st.tuples(st.sampled_from([1, 3]), st.integers(1, 8), st.integers(1, 4),
                  st.sampled_from(["float64", "complex128"]), st.integers(0, 2 ** 32 - 1))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(CASES)
def test_each_function_is_bitwise_np_linalg(case):
    S, n, k, dtype, seed = case
    rng = np.random.default_rng(seed)
    a, b = stack(rng, S, n, n, dtype), stack(rng, S, n, k, dtype)
    tall = stack(rng, S, n + k, n, dtype)          # rows > cols, as the split's QRs

    assert same(lapack.svdvals(a), np.linalg.svd(a, compute_uv=False))
    assert same(lapack.svdvals(tall), np.linalg.svd(tall, compute_uv=False))
    for got, want in zip(lapack.svd(tall), np.linalg.svd(tall)):
        assert same(got, want)
    wide = tall.swapaxes(1, 2).copy()
    for got, want in zip(lapack.svd_reduced(wide), np.linalg.svd(wide, full_matrices=False)):
        assert same(got, want)
    assert same(lapack.solve(a, b), np.linalg.solve(a, b))
    assert same(lapack.inv(a), np.linalg.inv(a))
    assert same(lapack.inv_or_nan(a), np.linalg.inv(a))
    assert same(lapack.eigvals(a), np.linalg.eigvals(a))
    for got, want in zip(lapack.eig(a), np.linalg.eig(a)):
        assert same(got, want)
    x = tall.copy()
    tau = lapack.qr_raw(x)
    h, want_tau = np.linalg.qr(tall, mode="raw")
    assert same(x.swapaxes(1, 2), h) and same(tau, want_tau)
    q, r = lapack.qr_complete(tall.copy())
    want_q, want_r = np.linalg.qr(tall, mode="complete")
    assert same(q, want_q) and same(np.triu(r[:, :n]), want_r[:, :n])
    for arr, axes in ((a, (None, 1, 2, (1, 2), (-2, -1))), (a[0, 0], (None,)),
                      (a[0, :, 0], (None,)), (a[0], (None,))):
        for axis in axes:
            assert same(lapack.norm(arr, axis=axis), np.linalg.norm(arr, axis=axis)), axis
    e = a + 4.0 * np.eye(n)
    assert np.array_equal(lapack.pencil_eigvals(e, a),
                          np.linalg.eigvals(np.linalg.solve(e, a)).astype(complex))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(S=st.sampled_from([1, 4, 63]), rows=st.integers(1, 12), extra=st.integers(0, 60),
       seed=st.integers(0, 2 ** 32 - 1))
def test_reduced_svd_gives_the_full_svds_u_on_wide_stacks(S, rows, extra, seed):
    """identcore.kernel_bases reads U and sigma of a wide Hankel stack from
    the reduced SVD, and of a tall one from the full SVD: on a wide stack
    the two give bitwise the same square U and singular values."""
    H = np.random.default_rng(seed).standard_normal((S, rows, rows + extra))
    U, s, _ = lapack.svd_reduced(H)
    full_u, full_s, _ = lapack.svd(H)
    assert U.shape == (S, rows, rows)
    assert same(U, full_u) and same(s, full_s)


@pytest.mark.parametrize("dtype", ["float64", "complex128"])
@pytest.mark.parametrize("name", ["solve", "inv"])
def test_a_singular_matrix_in_a_stack_raises_as_np_linalg(name, dtype):
    a = stack(np.random.default_rng(0), 3, 3, 3, dtype)
    a[1] = 0.0
    args = (a, a) if name == "solve" else (a,)
    with pytest.raises(np.linalg.LinAlgError) as want:
        getattr(np.linalg, name)(*args)
    with pytest.raises(np.linalg.LinAlgError) as got:
        getattr(lapack, name)(*args)
    assert str(got.value) == str(want.value) == "Singular matrix"


@pytest.mark.parametrize("dtype", ["float64", "complex128"])
def test_inv_or_nan_gives_a_singular_matrix_nan_and_no_error(dtype):
    a = stack(np.random.default_rng(0), 3, 3, 3, dtype)
    a[1] = 0.0
    got = lapack.inv_or_nan(a)              # RuntimeWarnings are errors in the tests
    assert np.isnan(got[1]).all()
    assert same(got[[0, 2]], np.linalg.inv(a[[0, 2]]))


def test_the_errors_of_a_failed_kernel_and_of_non_finite_input():
    a = np.full((1, 3, 3), np.nan)
    for name in ("svdvals", "svd", "svd_reduced", "eigvals", "eig"):
        with pytest.raises(np.linalg.LinAlgError):
            getattr(lapack, name)(a)
    a = np.eye(3)[None].copy()
    a[0, 0, 0] = np.inf
    with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
        lapack.eigvals(a)


def test_eigvals_of_a_real_spectrum_come_back_real():
    sym = np.array([[[2.0, 1.0], [1.0, 3.0]], [[1.0, 0.0], [0.0, -1.0]]])
    rot = np.array([[[0.0, -1.0], [1.0, 0.0]]])
    assert lapack.eigvals(sym).dtype == np.float64
    assert lapack.eig(sym)[0].dtype == lapack.eig(sym)[1].dtype == np.float64
    assert lapack.eigvals(rot).dtype == np.complex128
    # one complex spectrum in a stack makes the whole result complex
    assert lapack.eigvals(np.concatenate([sym, rot])).dtype == np.complex128


def test_pencil_eigvals_give_nan_for_a_singular_lead_and_no_error():
    rng = np.random.default_rng(1)
    a, e = rng.standard_normal((3, 2, 2)), np.eye(2) + np.zeros((3, 2, 2))
    e[1] = 0.0
    w = lapack.pencil_eigvals(e, a)         # RuntimeWarnings are errors in the tests
    assert np.isnan(w[1]).all() and np.isfinite(w[[0, 2]]).all()
    assert np.array_equal(w[[0, 2]], np.linalg.eigvals(a[[0, 2]]).astype(complex))


SINGULAR_LANE = """
import numpy as np
from ratex import lapack
e, a = np.stack([np.zeros((2, 2)), np.eye(2)]), np.ones((2, 2, 2))
w = lapack.pencil_eigvals(e, a)
print(np.isnan(w[0]).all(), np.allclose(np.sort_complex(w[1]), [0, 2]))
"""


def test_pencil_eigvals_leave_file_descriptor_1_to_the_caller():
    """A singular lead's NaN lane never reaches LAPACK's eigenvalue driver,
    whose error handler (OpenBLAS's xerbla) prints to file descriptor 1,
    outside sys.stdout, where a command's JSON report goes."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ratex.__file__))}
    done = subprocess.run([sys.executable, "-c", SINGULAR_LANE], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == "True True\n"
