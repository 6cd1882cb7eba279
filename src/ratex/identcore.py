"""Observational-equivalence kernel and identification rank tests.

The first 1 + (n+1)*kappa + lam impulse responses determine a matrix P
whose left kernel, with basis N, holds exactly the observationally equivalent
parameters.  Restrictions R identify the model iff R (N (x) I_n), or R N for
one equation, has full column rank; a structural-coefficient variant gives
the independent cross-check for the pure-VARMA case.

The equivalence class is x0 + (N (x) I_n) vec(W): equation i of an
equivalent model moves by row i of W alone.  A restriction row whose
nonzeros all lie in the equations of a set C therefore meets only the
columns of R (N (x) I_n) that belong to C.  Grouping R's rows into
connected components of the equations they touch (:class:`EquationBlocks`)
makes R (N (x) I_n) block diagonal up to a permutation of rows and columns,
one block R_C (N (x) I_|C|) per component, and the singular values of a
block-diagonal matrix are the union of its blocks' singular values (the
SVDs of the blocks assemble into one of the whole), padded with zeros up to
min(rows, columns).  So the tests rank the blocks, one stacked SVD per
block shape, instead of the n-times-wider lifted matrix: the classical
equation-by-equation rank condition.  Blocks of one shape are padded with
zero rows to a common height, so where the lifted SVD reported a
rounding-level singular value of a zero direction, a padded block reports
an exact 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import lapack
from .numrank import DEFAULT_TOL_RANK, InputError, count_above
from .polylab import LaurentMatrix, Model, SingularMatrixError
from .resolve import (NOT_FINITE, SolutionBundle, TransferSeries, solve_model,
                      spectral_distance, unit_circle_grid)

# tolerance for "the restrictions hold at the supplied point" (:func:`membership`)
MEMBERSHIP_RTOL = 1e-8

# relative residual of observational equivalence, and the spectral oracle's grid
EQUIV_RTOL = 1e-8
EQUIV_GRID = 64


class RestrictionDimensionError(InputError):
    """Restriction matrix columns do not match the coefficient space."""


@dataclass(frozen=True)
class IdentSystem:
    """T, H and the kernel basis N built from a transfer series at given
    dimensions and lag bounds; P is assembled on first read, since the rank
    tests need only its shape and norm."""

    n: int
    m: int
    kappa: int
    lam: int
    T: np.ndarray
    H: np.ndarray
    hankel_rank: int
    N: np.ndarray                     # null(P') on [B_-lam..B_kappa | A_0..A_kappa]

    @cached_property
    def P(self) -> np.ndarray:
        return p_matrix(self.T, self.H)


@dataclass(frozen=True)
class RankReport:
    """Outcome of one full-column-rank test, with the evidence attached.

    The system and equation tests rank R (N (x) I_n) or R N: the shape and
    singular values are that matrix's, ``required_rank`` is n * dim N (the
    equivalence-class dimension) or dim N, and the shortfall of
    ``numerical_rank`` is the rank deficiency of [P' (x) I_n; R] or [P'; R].
    The singular values come from the matrix's equation blocks
    (:class:`EquationBlocks`): they are the union of the blocks' singular
    values, because the matrix is block diagonal up to a permutation, so a
    zero direction that the lifted SVD resolved only to rounding level can
    show here as an exact 0.0.
    """

    matrix_shape: tuple
    singular_values: np.ndarray
    numerical_rank: int
    required_rank: int
    verdict: str                      # "identified" | "not_identified"
    gap_ratio: float                  # margin of sigma[required-1] over the cutoff
    warnings: tuple = field(default_factory=tuple)

    @property
    def identified(self) -> bool:
        return self.verdict == "identified"


@dataclass(frozen=True)
class RestrictionSet:
    """Affine (system or single-equation) or nonlinear restrictions.

    Affine rows act on vec([B_-lam .. B_kappa | A_0 .. A_kappa]) in
    column-stacking order; equation mode restricts row i (1-based) only.
    R is held as its entries, never as a dense matrix: ``entries`` =
    (rows, cols, values), one per nonzero (a pin is one unit entry), and
    ``shape`` = (r, N).  Nonlinear restrictions supply a residual callable
    of that same vector and, when they come from compiled expressions, its
    exact Jacobian as entries on one pattern at every point.  Building an
    empty set raises InputError.  :func:`membership` evaluates the residual
    of every kind.
    """

    kind: str                          # "affine" | "equation" | "nonlinear"
    entries: tuple | None = None       # (rows, cols, values) of R (affine kinds)
    shape: tuple | None = None         # (r, N) of R
    u: np.ndarray | None = None
    equation: int | None = None
    residual_fn: object = None
    r: int = 0
    jacobian_fn: object = None         # x -> (rows, cols, values): nonlinear only
    _blocks: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.r < 1:
            raise InputError("the restriction set is empty")

    @classmethod
    def affine(cls, R, u) -> "RestrictionSet":
        """R vec = u for a dense R.  A u = 0 is rejected by the rank test
        (:func:`check_test_kind`)."""
        return cls.sparse(*dense_entries(R), u)

    @classmethod
    def for_equation(cls, i: int, R, u) -> "RestrictionSet":
        return cls.sparse(*dense_entries(R), u, i)

    @classmethod
    def sparse(cls, entries: tuple, shape: tuple, u, equation: int | None = None):
        """R vec = u, or on equation ``equation``'s row, from R's entries
        (rows, cols, values), each (row, col) at most once, and its shape."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.shape != shape[:1]:
            raise RestrictionDimensionError("R and u row counts differ")
        return cls(kind="affine" if equation is None else "equation", entries=entries,
                   shape=tuple(shape), u=u, equation=equation, r=shape[0])

    @classmethod
    def nonlinear(cls, fn, r: int, equation: int | None = None,
                  jacobian=None) -> "RestrictionSet":
        """Residual map ``fn``; ``jacobian`` is its exact Jacobian, (P, size)
        points -> (rows, cols, values (P, nnz)) on one pattern at every
        point, and without one :meth:`jacobian` falls back to central
        differences."""
        return cls(kind="nonlinear", residual_fn=fn, r=r, equation=equation,
                   jacobian_fn=jacobian)

    def blocks(self, n: int) -> "EquationBlocks":
        """The equation blocks of R in an n-equation system (n = 1 for one
        equation), partitioned once per n, so a scan of many draws pays once."""
        if n not in self._blocks:
            self._blocks[n] = EquationBlocks(self.entries, self.shape, n)
        return self._blocks[n]

    def jacobian(self, points: np.ndarray) -> tuple:
        """The Jacobians of a nonlinear restriction map at the (P, size)
        points as (entries, shape), one pattern for all P, values (P, nnz).
        Compiled expressions give them exact, from one call over the stack
        (:meth:`~ratex.exprs.ExprProgram.jacobian`: one forward and one
        reverse sweep); an opaque residual callable gives central
        differences, point by point, whose dense Jacobians give the pattern
        of their nonzeros."""
        if self.jacobian_fn is None:
            from .paramdsl import fd_jacobian  # paramdsl imports this module

            return dense_entries(np.array(
                [np.atleast_2d(fd_jacobian(self.residual_fn, x)) for x in points]))
        return self.jacobian_fn(points), (self.r, points.shape[1])


def dense_entries(R) -> tuple:
    """(entries, shape) of a dense R (r, N), or of a stack (P, r, N) on the
    pattern of the nonzeros of any of its P, in row-major order."""
    R = np.atleast_2d(np.asarray(R, dtype=float))
    rows, cols = np.nonzero(R if R.ndim == 2 else (R != 0).any(axis=0))
    return (rows, cols, R[..., rows, cols]), R.shape[-2:]


# -- coefficient vectorization (normative ordering) ------------------------


def coeff_vec_length(n: int, m: int, kappa: int, lam: int, equation: bool = False) -> int:
    if equation:
        return n * (kappa + lam + 1) + m * (kappa + 1)
    return n * n * (kappa + lam + 1) + n * m * (kappa + 1)


def model_coeff_vec(model: Model) -> np.ndarray:
    """vec([B_-lam .. B_kappa | A_0 .. A_kappa]) at the model's declared bounds."""
    return coeff_vec(model.B.window(-model.lam, model.kappa), model.A.window(0, model.kappa))


def coeff_vec(b_blocks, a_blocks) -> np.ndarray:
    """vec([B_-lam .. B_kappa | A_0 .. A_kappa]) from the two lists of blocks."""
    return np.hstack(list(b_blocks) + list(a_blocks)).flatten(order="F")


def kernel_vec(B: LaurentMatrix, a_plus_mat: LaurentMatrix,
               n: int, m: int, kappa: int, lam: int) -> np.ndarray:
    """vec([B_-lam .. B_kappa | A+_-lam .. A+_kappa]) for kernel-membership tests."""
    return coeff_vec(B.window(-lam, kappa), a_plus_mat.window(-lam, kappa))


# -- system construction ---------------------------------------------------


def build_ident_system(transfer: TransferSeries, n: int, m: int,
                       kappa: int, lam: int,
                       tol_rank: float = DEFAULT_TOL_RANK) -> IdentSystem:
    """Assemble T (block Toeplitz), H (block Hankel) and N; P = [[-T,-H],[I,0]].

    H's bottom-left block is C_1 and its top-right block is
    C_{(n+1)kappa+lam}; the Hankel rank is the McMillan degree of the
    strictly proper part of the transfer function.  P' [x_B; x_A] = 0 iff
    H' x_B = 0 and x_A = T' x_B; N keeps the rows of A_0..A_kappa.  A
    Hankel rank above its bound n * kappa (:func:`kernel_bases`) raises
    InputError; an N that overflows fails as a solution does
    (:data:`~ratex.resolve.NOT_FINITE`).
    """
    need = (n + 1) * kappa + lam
    if transfer.horizon < need:
        raise ValueError(f"transfer horizon {transfer.horizon} < required {need}")
    T, H = toeplitz_hankel(transfer.coeffs[None], n, m, kappa, lam)
    ranks, groups = kernel_bases(T, H, m, lam, tol_rank)
    if ranks[0] > n * kappa:
        raise InputError(f"Hankel rank {ranks[0]} exceeds its bound n*kappa = {n * kappa} "
                         f"at --tol-rank {tol_rank:g}; raise --tol-rank")
    N = groups[ranks[0]][1][0]
    if not np.isfinite(N).all():
        raise SingularMatrixError(NOT_FINITE)
    return IdentSystem(n=n, m=m, kappa=kappa, lam=lam, T=T[0], H=H[0],
                       hankel_rank=int(ranks[0]), N=N)


def model_ident_system(model: Model, tol_rank: float = DEFAULT_TOL_RANK) -> IdentSystem:
    """The system of the ``ident`` and ``local`` tests, solved as far as it needs."""
    bundle = solve_model(model, horizon=(model.n + 1) * model.kappa + model.lam)
    return build_ident_system(bundle.transfer, model.n, model.m, model.kappa, model.lam, tol_rank)


def p_matrix(T: np.ndarray, H: np.ndarray) -> np.ndarray:
    """P = [[-T, -H], [I, 0]] of one system."""
    mq = T.shape[1]
    return np.block([[-T, -H], [np.eye(mq), np.zeros((mq, H.shape[1]))]])


def toeplitz_hankel(C: np.ndarray, n: int, m: int, kappa: int, lam: int):
    """T and H of :func:`build_ident_system` for each transfer series of an
    (S, horizon + 1, n, m) stack, by one gather each."""
    S, need, q = C.shape[0], (n + 1) * kappa + lam, kappa + lam + 1
    Cz = np.concatenate([C[:, :need + 1], np.zeros((S, 1, n, m))], axis=1)
    i, j = np.arange(q)[:, None], np.arange(q)[None, :]
    T = Cz[:, np.where(j >= i, j - i, need + 1)]            # block (i, j) = C_{j-i}
    H = Cz[:, q - i + np.arange(n * kappa)[None, :]]        # block (r, c) = C_{q-r+c}
    return (T.transpose(0, 1, 3, 2, 4).reshape(S, n * q, m * q),
            H.transpose(0, 1, 3, 2, 4).reshape(S, n * q, m * n * kappa))


@np.errstate(all="ignore")
def kernel_bases(T: np.ndarray, H: np.ndarray, m: int, lam: int, tol_rank: float):
    """Hankel rank and N = null(P') of each sample of a (T, H) stack, from
    one stacked SVD of H.

    The Hankel rank is the McMillan degree, at most n * kappa, so the
    equivalence class has dimension at least n^2 (1 + lam).  A cutoff too
    small for the rounding in H can count a rank above that bound, and the
    callers reject it (:func:`build_ident_system` raises, the generic scan
    marks the sample).  N has n*q - rank columns, so the bases come grouped
    by Hankel rank: ``{rank: (sample indices, N stack)}``, a stack whose
    samples share one rank (one sample, say) taken whole rather than
    indexed.  The rank cutoff scales with the larger of sigma_max(H) and
    the largest coefficient in T, so a Hankel block of rounding noise next
    to C_0 has rank 0.  A T' U that overflows leaves its N not finite,
    quietly; callers reject it.  U is square either way; a wide H takes it
    from the reduced SVD, which forms no square V^H.
    """
    U, svals, _ = (lapack.svd if H.shape[-2] > H.shape[-1] else lapack.svd_reduced)(H)
    scale = np.maximum(svals.max(axis=-1, initial=0.0), np.abs(T).max(axis=(1, 2)))
    ranks, _ = count_above(svals, tol_rank, scale, H.shape[1:])
    groups = {}
    for rank in sorted(set(ranks.tolist())):
        lanes = np.flatnonzero(ranks == rank)
        sel = slice(None) if lanes.size == len(ranks) else lanes
        Ur = U[sel][:, :, rank:]
        groups[rank] = (lanes, np.concatenate(
            [Ur, T[sel][:, :, m * lam:].swapaxes(1, 2) @ Ur], axis=1))
    return ranks, groups


def p_shape(T: np.ndarray, H: np.ndarray) -> tuple:
    """Shape of P = [[-T, -H], [I, 0]] from those of T and H (one system or
    a stack)."""
    return (T.shape[-2] + T.shape[-1], T.shape[-1] + H.shape[-1])


def p_norm(T: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Frobenius norm of P = [[-T, -H], [I, 0]] for each sample of a stack."""
    return np.sqrt((T * T).sum(axis=(1, 2)) + (H * H).sum(axis=(1, 2)) + T.shape[2])


def equivalence_class_dim(sys: IdentSystem) -> int:
    """Dimension of the set of observationally equivalent parameters, at
    least n^2 (1 + lam) because :func:`build_ident_system` bounds the
    Hankel rank by n * kappa."""
    return sys.n ** 2 * (sys.kappa + sys.lam + 1) - sys.n * sys.hankel_rank


def obs_equivalent(bundle_a: SolutionBundle, bundle_b: SolutionBundle,
                   tol: float = EQUIV_RTOL):
    """Kernel-membership test for observational equivalence.

    Returns ``(equivalent, residual, scale)``.  The kernel criterion lives
    in the coefficient space with the joint lag bounds of the two models;
    model b enters through its B and its extended shock loading.  A
    residual or scale that is not finite fails as a solution does
    (:data:`~ratex.resolve.NOT_FINITE`).
    """
    ma, mb = bundle_a.model, bundle_b.model
    if (ma.n, ma.m) != (mb.n, mb.m):
        raise RestrictionDimensionError("models must share dimensions (n, m)")
    kappa = max(ma.kappa, mb.kappa)
    lam = max(ma.lam, mb.lam)
    need = (ma.n + 1) * kappa + lam
    if bundle_a.transfer.horizon < need:
        bundle_a = solve_model(ma, horizon=need)
    T, H = toeplitz_hankel(bundle_a.transfer.coeffs[None], ma.n, ma.m, kappa, lam)
    P = p_matrix(T[0], H[0])
    xi = kernel_vec(mb.B, bundle_b.a_plus, ma.n, ma.m, kappa, lam)
    X = xi.reshape(ma.n, -1, order="F")
    resid = float(np.max(np.abs(X @ P)))
    scale = max(float(np.max(np.abs(xi))), 1.0) * max(float(np.max(np.abs(P))), 1.0)
    if not np.isfinite([resid, scale]).all():
        raise SingularMatrixError(NOT_FINITE)
    return resid <= tol * scale, resid, scale


def spectral_equivalent(bundle_a: SolutionBundle, bundle_b: SolutionBundle,
                        grid_size: int = EQUIV_GRID, tol: float = EQUIV_RTOL):
    """Spectral-density oracle for observational equivalence."""
    if bundle_a.model.n != bundle_b.model.n:
        raise RestrictionDimensionError("models must share the dimension n")
    diff, scale = spectral_distance(bundle_a, bundle_b, unit_circle_grid(grid_size))
    return diff <= tol * scale, diff, scale


# -- rank tests ------------------------------------------------------------


class EquationBlocks:
    """The rows of a restriction matrix R on vec of an n-equation coefficient
    matrix, grouped by the equations their entries touch.

    R comes as its entries (rows, cols, values) and its shape (r, N); the
    values are (nnz,) for one matrix or (P, nnz) for a stack of P on one
    pattern, such as Jacobians at P points.  Position c * n + s of the
    vector holds equation s's coefficient c, so an entry in column col
    touches equation col % n.  A row that touches several equations merges
    them, so the components are the connected components of the equations;
    a row without entries joins the first component (it adds only a zero
    singular value), and equations no row touches are free.  The partition
    reads the pattern alone.  Components of equal width w share one array
    ``(P, K, r, w, c)``: component k's rows, padded with zero rows to the
    group's largest count r, with coefficient c of its t-th equation at
    [:, k, :, t, c].
    """

    def __init__(self, entries: tuple, shape: tuple, n: int):
        self.entries, self.shape, self.n = entries, shape, n

    @cached_property
    def norm(self):
        """|R|_F, one per matrix of a stack, over the entries."""
        return lapack.norm(self.entries[2], axis=-1)

    @cached_property
    def partition(self) -> tuple:
        """(one (block shape (K, r, w, c), entry selector, positions) per
        width w, free equations): the selected entries sit at those
        positions of the flat block.  The components with rows go by width,
        then label, each holding its rows and equations in order."""
        rows, cols, _ = self.entries
        n, (r, width) = self.n, self.shape
        if n == 1:
            return (((1, r, 1, width), slice(None), rows * width + cols),), np.zeros(0, dtype=int)
        c, (coeff, eq) = width // n, np.divmod(cols, n)
        row_label = np.zeros(r, dtype=int)      # an equation of each row; none: equation 0
        row_label[rows] = eq
        # each equation is labelled by the first equation of its component
        label = list(range(n))
        off = eq != row_label[rows]             # entries that join two equations
        if off.any():
            for pair in sorted(set((eq[off] * n + row_label[rows[off]]).tolist())):
                a, b = label[pair // n], label[pair % n]
                if a != b:
                    keep, drop = min(a, b), max(a, b)
                    label = [keep if lab == drop else lab for lab in label]
            row_label = np.array(label)[row_label]
        heights = np.bincount(row_label, minlength=n)
        # each row's place among its component's rows, in order
        order = np.argsort(row_label, kind="stable")
        place = np.empty(r, dtype=int)
        place[order] = np.arange(r) - (np.cumsum(heights) - heights)[row_label[order]]
        tall, eqs_of, by_width = heights.tolist(), {}, {}
        for e, lab in enumerate(label):
            eqs_of.setdefault(lab, []).append(e)
        for lab, members in eqs_of.items():     # labels in increasing order
            if tall[lab]:
                by_width.setdefault(len(members), []).append(lab)
        # per equation: the flat offset of its column 0 in its block's row 0,
        # the stride of a row, and its group
        offset, stride, group, dims = [0] * n, [0] * n, [0] * n, []
        for g, (w, labels) in enumerate(sorted(by_width.items())):
            h = max(tall[lab] for lab in labels)
            for k, lab in enumerate(labels):
                for t, e in enumerate(eqs_of[lab]):
                    offset[e], stride[e], group[e] = (k * h * w + t) * c, w * c, g
            dims.append((len(labels), h, w, c))
        flat = np.array(offset)[eq] + place[rows] * np.array(stride)[eq] + coeff
        if len(dims) == 1:
            groups = [(dims[0], slice(None), flat)]
        else:
            of, groups = np.array(group)[eq], []
            for g, d in enumerate(dims):
                sel = np.flatnonzero(of == g)
                groups.append((d, sel, flat[sel]))
        free = [e for e, lab in enumerate(label) if not tall[lab]]
        return tuple(groups), np.array(free, dtype=int)

    @cached_property
    def blocks(self) -> tuple:
        """One (P, K, r, w, c) array per width, P = 1 for one matrix."""
        values = self.entries[2]
        P = 1 if values.ndim == 1 else len(values)
        out = []
        for dims, sel, flat in self.partition[0]:
            block = np.zeros(values.shape[:-1] + (math.prod(dims),))
            block.T[flat] = values.T[sel]       # along the last axis, one matrix or P
            out.append(block.reshape(P, *dims))
        return tuple(out)

    def singular_values(self, X: np.ndarray, tail: np.ndarray | None = None):
        """Singular values of R (X (x) I_n), stacked over tail (x) I_n when
        given, for each X of an (S, c, q) stack and each R of a stack of P,
        one of S and P being 1 or both equal, from one stacked SVD per block
        shape.  Returns (max(S, P), min(rows, cols)) values in descending
        order and the shape (rows, cols) of that matrix."""
        free = self.partition[1]
        S, q = max(len(X), len(self.blocks[0])), X.shape[2]
        d = 0 if tail is None else tail.shape[0]
        parts = []
        for block in self.blocks:
            P, K, r, w, c = block.shape
            M = (block.reshape(P, -1, c) @ X).reshape(S, K, r, w * q)
            if d:
                lanes = np.arange(w)
                kron = np.zeros((w, d, w, q))
                kron[lanes, :, lanes] = tail
                M = np.concatenate([M, np.broadcast_to(
                    kron.reshape(w * d, w * q), (S, K, w * d, w * q))], axis=2)
            parts.append(lapack.svdvals(M).reshape(S, -1))
        if d and free.size:
            parts.append(np.tile(lapack.svdvals(tail), (S, free.size)))
        shape = (self.shape[0] + self.n * d, self.n * q)
        k = min(shape)
        if len(parts) == 1 and self.blocks[0].shape[1] == 1:
            merged = parts[0]           # one block: LAPACK's order is descending
        else:
            merged = np.sort(np.concatenate([np.zeros((S, 0))] + parts, axis=1),
                             axis=1)[:, ::-1]
        if merged.shape[1] < k:
            merged = np.concatenate([merged, np.zeros((S, k - merged.shape[1]))], axis=1)
        return merged[:, :k], shape


def rank_gaps(svals: np.ndarray, required: int, tol_rank: float, scale, shape: tuple):
    """Ranks and gap ratios (the margin of sigma[required - 1] over the
    cutoff, 0 without one) of (S, k) singular values, at the cutoff of
    :func:`~ratex.numrank.count_above`."""
    ranks, cutoffs = count_above(svals, tol_rank, scale, shape)
    if required > svals.shape[1]:
        return ranks, np.zeros(len(svals))
    gaps = np.divide(svals[:, required - 1], cutoffs, out=np.zeros(len(svals)),
                     where=cutoffs > 0)
    return ranks, gaps


def lane_report(shape: tuple, rank, svals: np.ndarray, required: int, gap) -> RankReport:
    """The RankReport of one sample of a stacked rank test."""
    verdict = "identified" if rank == required else "not_identified"
    return RankReport(matrix_shape=tuple(shape), singular_values=svals,
                      numerical_rank=int(rank), required_rank=required,
                      verdict=verdict, gap_ratio=float(gap))


def kernel_rank_stack(N: np.ndarray, blocks: EquationBlocks, pnorm: np.ndarray,
                      p_shape: tuple, tol_rank: float):
    """Rank R (N (x) I_n), or R N for one equation (``blocks.n`` = 1), for
    each basis of an (S, rows, dim N) stack (or each R of a stack of
    blocks, with S = 1), at the cutoff of the stack
    [P' (x) I_n; R] or [P'; R]; R N has no scale of its own, so
    max(|P|_F, |R|_F) stands in for the stack's sigma_max.  The singular
    values come from R's equation blocks.  Returns (shape of R (N (x) I_n),
    ranks, singular values, gap ratios)."""
    (rows, width), n = blocks.shape, blocks.n
    cols = n * N.shape[1]
    if width != cols:
        raise RestrictionDimensionError(
            f"restriction matrix has {width} columns, expected {cols}")
    svals, shape = blocks.singular_values(N)
    stacked = (n * p_shape[1] + rows, n * p_shape[0])
    scale = np.maximum(pnorm, blocks.norm)
    ranks, gaps = rank_gaps(svals, shape[1], tol_rank, scale, stacked)
    return shape, ranks, svals, gaps


def check_test_kind(restrictions: RestrictionSet, n: int, equation: bool):
    """Raise InputError when the restrictions cannot drive the system-wide
    test (``equation`` false) or the equation test of an n-equation model."""
    if not equation:
        if restrictions.kind != "affine":
            raise InputError("system-wide test needs affine restrictions")
        if restrictions.u is not None and not np.any(restrictions.u):
            raise InputError("u = 0 is meaningless: the whole scale direction satisfies it")
        return
    if restrictions.kind != "equation":
        raise InputError("equation test needs equation-wise restrictions")
    if not 1 <= restrictions.equation <= n:
        raise InputError(f"equation index {restrictions.equation} outside 1..{n}")


def membership(restrictions: RestrictionSet, x: np.ndarray) -> tuple:
    """(max |residual|, bound) of any restrictions at the point x (an
    equation's row in equation mode): the residual R x - u or the residual
    map's, the bound MEMBERSHIP_RTOL * (1 + max |x|)."""
    if restrictions.kind == "nonlinear":
        resid = restrictions.residual_fn(x)
    else:
        rows, cols, values = restrictions.entries
        resid = np.bincount(rows, values * x[cols], restrictions.r) - restrictions.u
    return float(np.max(np.abs(resid))), MEMBERSHIP_RTOL * (1.0 + float(np.max(np.abs(x))))


def membership_warnings(restrictions: RestrictionSet, vec: np.ndarray, n: int) -> tuple:
    """Warning when affine or equation restrictions miss the point whose
    coefficient vector (:func:`coeff_vec`) is ``vec`` (:func:`membership`)."""
    i = restrictions.equation
    resid, bound = membership(restrictions, vec if i is None else
                              vec.reshape(n, -1, order="F")[i - 1])
    if resid > bound:
        label = "affine" if i is None else f"equation-{i}"
        return (f"{label} restrictions not satisfied at the point "
                f"(residual {resid:.3e}); the verdict presupposes membership",)
    return ()


def _ident_test(sys: IdentSystem, restrictions: RestrictionSet, model: Model | None,
                tol_rank: float, equation: bool) -> RankReport:
    """The rank test of :func:`ident_test_affine` (``equation`` false) or
    :func:`ident_test_equation`, with the membership warning at ``model``."""
    check_test_kind(restrictions, sys.n, equation)
    blocks = restrictions.blocks(1 if equation else sys.n)
    shape, ranks, svals, gaps = kernel_rank_stack(
        sys.N[None], blocks, p_norm(sys.T[None], sys.H[None]), p_shape(sys.T, sys.H),
        tol_rank)
    report = lane_report(shape, ranks[0], svals[0], shape[1], gaps[0])
    if model is None:
        return report
    return replace(report, warnings=membership_warnings(
        restrictions, model_coeff_vec(model), sys.n))


def ident_test_affine(sys: IdentSystem, restrictions: RestrictionSet,
                      model: Model | None = None,
                      tol_rank: float = DEFAULT_TOL_RANK) -> RankReport:
    """Full-column-rank test for system-wide identification under R vec = u."""
    return _ident_test(sys, restrictions, model, tol_rank, equation=False)


def ident_test_equation(sys: IdentSystem, restrictions: RestrictionSet,
                        model: Model | None = None,
                        tol_rank: float = DEFAULT_TOL_RANK) -> RankReport:
    """Full-column-rank test for identification of a single equation."""
    return _ident_test(sys, restrictions, model, tol_rank, equation=True)


# -- structural-coefficient cross-check (pure VARMA) ------------------------


def ds_criterion(model: Model, restrictions: RestrictionSet,
                 tol_rank: float = DEFAULT_TOL_RANK) -> RankReport:
    """Identification test populated by (B, A) coefficients instead of
    impulse responses; defined for lam = 0 only and equivalent to
    ident_test_affine there.
    """
    if model.lam != 0:
        raise InputError("the structural-coefficient criterion requires lam = 0")
    if restrictions.kind != "affine":
        raise InputError("the structural-coefficient criterion needs system-wide "
                         "affine restrictions")
    n, m, kappa = model.n, model.m, model.kappa
    nb = 1 + (n + 1) * kappa          # block count of the lifted space
    expected_cols = coeff_vec_length(n, m, kappa, 0)
    if restrictions.shape[1] != expected_cols:
        raise RestrictionDimensionError(
            f"R has {restrictions.shape[1]} columns, expected {expected_cols}")

    # block-Toeplitz D: row block i carries B_{j-i} / A_{j-i} at column block j
    D = np.zeros((n * nb, (n + m) * nb))
    for i in range(nb):
        for j in range(i, min(i + kappa, nb - 1) + 1):
            D[i * n:(i + 1) * n, j * n:(j + 1) * n] = model.B.coefficient(j - i)
            D[i * n:(i + 1) * n, n * nb + j * m:n * nb + (j + 1) * m] = \
                model.A.coefficient(j - i)

    # [R E; E_perp] (D' (x) I_n), E keeping the lag 0..kappa columns of each
    # equation's lifted coefficients: R (D'_keep (x) I_n) over D'_drop (x) I_n
    keep = np.zeros((n + m) * nb, dtype=bool)
    keep[:n * (kappa + 1)] = keep[n * nb:n * nb + m * (kappa + 1)] = True
    svals, shape = restrictions.blocks(n).singular_values(D.T[keep][None], D.T[~keep])
    required = n * n * nb
    ranks, gaps = rank_gaps(svals, required, tol_rank, None, shape)
    return lane_report(shape, ranks[0], svals[0], required, gaps[0])
