"""The equation-block rank tests against the Kronecker-lifted matrices they
stand for.

The oracles below build the lifted matrices explicitly: R (N (x) I_n) by
one product of R's columns regrouped per equation with N, and the
structural-coefficient matrix [R E; E_perp] (D' (x) I_n) with the Kronecker
product formed.  The block tests must give the same ranks, required rank,
shape and number of singular values, and singular values within 1e-12 of
the largest.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_valid_model
from oracles import dense
from ratex.identcore import (
    EquationBlocks,
    RestrictionSet,
    coeff_vec_length,
    dense_entries,
    ds_criterion,
    kernel_rank_stack,
    rank_gaps,
)
from ratex.modelio import compile_nonlinear, restrictions_from_dict
from ratex.numrank import DEFAULT_TOL_RANK, InputError


def lifted_kernel_matrix(N: np.ndarray, R: np.ndarray, n: int) -> np.ndarray:
    """R (N (x) I_n) for each N of an (S, c, q) stack, columns permuted."""
    rows, c = R.shape[0], N.shape[1]
    Rt = R.reshape(rows, c, n).transpose(0, 2, 1).reshape(rows * n, c)
    return (Rt @ N).reshape(len(N), rows, -1)


def lifted_ds_matrix(model, R: np.ndarray) -> np.ndarray:
    """[R E; E_perp] (D' (x) I_n) with D' (x) I_n formed explicitly."""
    n, m, kappa = model.n, model.m, model.kappa
    nb = 1 + (n + 1) * kappa
    D = np.zeros((n * nb, (n + m) * nb))
    for i in range(nb):
        for j in range(i, min(i + kappa, nb - 1) + 1):
            D[i * n:(i + 1) * n, j * n:(j + 1) * n] = model.B.coefficient(j - i)
            D[i * n:(i + 1) * n, n * nb + j * m:n * nb + (j + 1) * m] = \
                model.A.coefficient(j - i)
    keep = []
    for j in range(kappa + 1):
        for col in range(j * n, (j + 1) * n):
            keep.extend(range(col * n, (col + 1) * n))
    for j in range(kappa + 1):
        for col in range(n * nb + j * m, n * nb + (j + 1) * m):
            keep.extend(range(col * n, (col + 1) * n))
    drop = np.setdiff1d(np.arange(n * (n + m) * nb), keep)
    K = np.kron(D.T, np.eye(n))
    return np.vstack([R @ K[keep], K[drop]])


def restriction_rows(rng, kind: str, rows: int, c: int, n: int) -> np.ndarray:
    """R on vec of an n-equation coefficient matrix with c columns per
    equation: unit pins, dense rows within one equation each, or
    single-coefficient rows with arbitrary values (the Jacobian of
    single-coefficient expressions); ``coupled`` adds a dense row over two
    equations to the equation-wise rows."""
    R = np.zeros((rows, c * n))
    for k in range(rows):
        eq = int(rng.integers(n))
        if kind in ("pins", "single"):
            R[k, int(rng.integers(c)) * n + eq] = 1.0 if kind == "pins" else rng.standard_normal()
        else:
            R[k, np.arange(c) * n + eq] = rng.standard_normal(c) * (rng.random(c) < 0.6)
    if kind == "coupled" and n > 1:
        k = int(rng.integers(rows))
        for eq in rng.choice(n, 2, replace=False):
            R[k, np.arange(c) * n + eq] = rng.standard_normal(c)
    return R


def assert_same_svals(blocked, lifted):
    assert blocked.shape == lifted.shape
    scale = max(float(np.abs(lifted).max(initial=0.0)), 1e-300)
    assert np.all(np.abs(blocked - lifted) <= 1e-12 * scale)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(n=st.integers(1, 4), S=st.integers(1, 4), c=st.integers(1, 7),
       kind=st.sampled_from(["pins", "dense", "single", "coupled"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_kernel_blocks_match_lift(n, S, c, kind, seed):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(1, c + 1))
    rows = int(rng.integers(1, n * q + 3))
    R = restriction_rows(rng, kind, rows, c, n)
    N = rng.standard_normal((S, c, q))
    if rng.random() < 0.3:  # a rank-deficient basis
        N[:, :, -1] = N[:, :, 0]
    pnorm = rng.uniform(0.5, 5.0, S)
    p_shape = (c + 2, c + 1)

    shape, ranks, svals, gaps = kernel_rank_stack(
        N, EquationBlocks(*dense_entries(R), n), pnorm, p_shape, DEFAULT_TOL_RANK)
    lift = lifted_kernel_matrix(N, R, n)
    lifted = np.linalg.svd(lift, compute_uv=False)
    scale = np.maximum(pnorm, np.linalg.norm(R))
    stacked = (n * p_shape[1] + rows, n * p_shape[0])
    lifted_ranks, _ = rank_gaps(lifted, lift.shape[2], DEFAULT_TOL_RANK, scale, stacked)

    assert shape == lift.shape[1:]
    assert np.array_equal(ranks, lifted_ranks)
    assert_same_svals(svals, lifted)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(n=st.integers(1, 4), lam=st.integers(0, 1), kappa=st.integers(0, 1),
       rows=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1))
def test_expression_jacobian_blocks_match_lift(n, lam, kappa, rows, seed):
    """Single-coefficient expressions, ranked at a stack of points on the
    one pattern of their Jacobian entries, against each point ranked alone
    on the pattern of its nonzeros."""
    rng = np.random.default_rng(seed)
    m = 1
    names = [f"B[{lag}][{i}][{j}]" for lag in range(-lam, kappa + 1)
             for i in range(1, n + 1) for j in range(1, n + 1)]
    exprs = [f"{names[int(rng.integers(len(names)))]}^2 - 1" for _ in range(rows)]
    res = compile_nonlinear(exprs, n, m, kappa, lam)
    points = rng.standard_normal((3, coeff_vec_length(n, m, kappa, lam)))
    points[1, :] = 0.0                  # every derivative 2 x vanishes here
    c = coeff_vec_length(n, m, kappa, lam, equation=True)
    N = rng.standard_normal((1, c, int(rng.integers(1, c + 1))))

    shape, ranks, svals, _ = kernel_rank_stack(
        N, EquationBlocks(*res.jacobian(points), n), np.ones(1), (c, c), DEFAULT_TOL_RANK)
    for x, rank, sv in zip(points, ranks, svals):
        J = dense(*res.jacobian(x[None]))[0]
        oracle = kernel_rank_stack(N, EquationBlocks(*dense_entries(J), n), np.ones(1),
                                   (c, c), DEFAULT_TOL_RANK)
        lifted = np.linalg.svd(lifted_kernel_matrix(N, J, n), compute_uv=False)
        assert shape == oracle[0]
        assert rank == oracle[1][0]
        assert_same_svals(sv[None], lifted)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(n=st.integers(1, 4), kappa=st.integers(0, 2),
       kind=st.sampled_from(["pins", "dense", "single", "coupled"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_ds_blocks_match_lift(n, kappa, kind, seed):
    rng = np.random.default_rng(seed)
    model, *_ = make_valid_model(rng, n=n, m=n, lam=0, kappa=kappa)
    c = coeff_vec_length(n, n, kappa, 0, equation=True)
    rows = int(rng.integers(1, n * n + 3))
    R = restriction_rows(rng, kind, rows, c, n)
    res = RestrictionSet.affine(R, np.ones(rows))

    report = ds_criterion(model, res)
    M = lifted_ds_matrix(model, R)
    lifted = np.linalg.svd(M, compute_uv=False)
    required = n * n * (1 + (n + 1) * kappa)
    lifted_rank, _ = rank_gaps(lifted[None], required, DEFAULT_TOL_RANK, None, M.shape)

    assert report.matrix_shape == M.shape
    assert report.required_rank == required == M.shape[1]
    assert report.numerical_rank == lifted_rank[0]
    assert_same_svals(report.singular_values, lifted)


def test_separable_ds_forms_no_kronecker(monkeypatch):
    rng = np.random.default_rng(3)
    model, *_ = make_valid_model(rng, n=3, m=3, lam=0, kappa=1)
    c = coeff_vec_length(3, 3, 1, 0, equation=True)
    R = restriction_rows(rng, "pins", 9, c, 3)
    expected = ds_criterion(model, RestrictionSet.affine(R, np.ones(9)))

    def no_kron(*args):
        raise AssertionError("np.kron called")

    monkeypatch.setattr(np, "kron", no_kron)
    report = ds_criterion(model, RestrictionSet.affine(R, np.ones(9)))
    assert report.numerical_rank == expected.numerical_rank


def test_partition_groups_connected_equations():
    # four equations, one coefficient each: rows 0 and 2 touch equations
    # {0} and {0, 2}, row 1 touches {3}, row 3 is all zero; equation 1 is free
    R = np.zeros((4, 4))
    R[0, 0], R[2, 0], R[2, 2], R[1, 3] = 1.0, 3.0, 3.5, 2.0
    blocks = EquationBlocks(*dense_entries(R), 4)
    assert blocks.partition[1].tolist() == [1]
    single, pair = (block[0] for block in blocks.blocks)     # widths 1 and 2
    assert single.tolist() == [[[[2.0]]]]
    # the zero row joins equation 0's block, padded to its three rows
    assert sorted(pair[0].tolist()) == [[[0.0], [0.0]], [[1.0], [0.0]], [[3.0], [3.5]]]


def test_restriction_set_partitions_once():
    R = np.eye(6)[:4]
    res = RestrictionSet.affine(R, np.ones(4))
    assert res.blocks(2) is res.blocks(2)
    assert res.blocks(2) is not res.blocks(1)


def assert_same_partition(got, want):
    (got_groups, got_free), (want_groups, want_free) = got, want
    assert np.array_equal(got_free, want_free)
    assert len(got_groups) == len(want_groups)
    for (dims, _, flat), (want_dims, _, want_flat) in zip(got_groups, want_groups):
        assert dims == want_dims
        assert np.array_equal(flat, want_flat)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(n=st.integers(1, 5), lam=st.integers(0, 1), kappa=st.integers(0, 2),
       equation=st.one_of(st.none(), st.integers(1, 5)),
       spread=st.sampled_from(["any", "A only", "one equation"]),
       rows=st.integers(1, 30), seed=st.integers(0, 2 ** 32 - 1))
def test_pin_blocks_match_nonzero_blocks(n, lam, kappa, equation, spread, rows, seed):
    """The blocks of a pin file, built from its unit entries, are the blocks
    of the same rows given as a dense R file, built from R's nonzeros: in
    system and equation mode, with duplicate pins, pins on A alone and pins
    on one equation."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 3))
    equation = None if equation is None else min(equation, n)
    eq_row = int(rng.integers(1, n + 1)) if spread == "one equation" else None
    pins = []
    for _ in range(rows):
        block = "A" if spread == "A only" or rng.random() < 0.3 else "B"
        lag = int(rng.integers(0 if block == "A" else -lam, kappa + 1))
        row = equation or eq_row or int(rng.integers(1, n + 1))
        col = int(rng.integers(1, (m if block == "A" else n) + 1))
        pins.append({"block": block, "lag": lag, "row": row, "col": col, "value": 1.0})
    if pins and rng.random() < 0.5:                       # a duplicate pin
        pins.append(dict(pins[int(rng.integers(len(pins)))]))
    head = {} if equation is None else {"equation": equation}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")                   # dependent rows
        res = restrictions_from_dict({**head, "pins": pins}, n, m, kappa, lam)
        R = dense(res.entries, res.shape)
        assert np.array_equal(R.sum(axis=1), np.ones(len(pins)))     # unit rows
        as_r = restrictions_from_dict({**head, "R": R.tolist(), "u": res.u.tolist()},
                                      n, m, kappa, lam)
    width = n if equation is None else 1      # the tests rank an equation's R alone
    got, want = res.blocks(width), as_r.blocks(width)
    assert_same_partition(got.partition, want.partition)
    for block, want_block in zip(got.blocks, want.blocks):
        assert np.array_equal(block, want_block)
    assert got.norm == want.norm == np.sqrt(len(pins))


@pytest.mark.parametrize("build", [
    lambda: restrictions_from_dict({"pins": []}, 2, 1, 1, 0),
    lambda: restrictions_from_dict({"equation": 1, "pins": []}, 2, 1, 1, 0),
    lambda: restrictions_from_dict({"nonlinear": []}, 2, 1, 1, 0),
    lambda: RestrictionSet.affine(np.zeros((0, 10)), np.zeros(0)),
    lambda: RestrictionSet.for_equation(1, np.zeros((0, 5)), np.zeros(0)),
    lambda: RestrictionSet.nonlinear(lambda x: x[:0], 0),
])
def test_empty_restriction_set_rejected(build):
    """A set without restrictions has no blocks to rank: building one is an
    InputError, from a file or a library call, and warns nothing first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="the restriction set is empty"):
            build()
