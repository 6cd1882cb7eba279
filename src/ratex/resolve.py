"""Stationary-solution objects: moving-average part, extended shock loading,
transfer series, canonical-form normalization, spectral density, simulation.

For a valid model the solution is Y_t = B_plus^-1(L) M(L) eps_t where
M = [B_minus^-1 A]_+ is a polynomial, equivalently Y_t = B^-1(L) A_plus(L)
eps_t with A_plus = B_minus M.  Both routes are implemented; tests assert
they produce the same transfer coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import lapack
from .numrank import DEFAULT_TOL_RANK, numerical_rank
from .polylab import (
    LaurentMatrix,
    Model,
    SingularMatrixError,
    companion_stack,
    lp_mul,
    series_divide,
    trim_dust,
)
from .wienerhopf import WHFactors, bminus_inv_plus, wh_factorize_all

# zeros of the moving-average part this close to |z| = 1 are boundary cases
# (reported, not fatal); strictly smaller moduli violate invertibility
CF_BOUNDARY_MARGIN = 1e-9
# C_0 entries above CF_ZERO_RTOL * max(1, max |C_0|) count as nonzero in the CF check
CF_ZERO_RTOL = 1e-9

# a stationary solution's numbers are finite; one that is not fails with this
NOT_FINITE = "solution is not all finite: B_plus(0) is singular or its numbers overflow"

# truncation rule of simulate (see there)
SIM_DECAY_RTOL = 1e-12
SIM_HORIZON_CAP = 10_000


class RankDeficientC0(Exception):
    """rank(C0) < m: no orthogonal rotation can reach the canonical form."""


class NotInvertible(Exception):
    """The transfer function loses rank inside the open unit disk."""


@dataclass(frozen=True)
class TransferSeries:
    """Leading Taylor coefficients C_0..C_N of the solution transfer function."""

    coeffs: np.ndarray  # (N + 1, n, m)

    def __post_init__(self):
        self.coeffs.flags.writeable = False

    @property
    def horizon(self) -> int:
        return self.coeffs.shape[0] - 1

    def coefficient(self, j: int) -> np.ndarray:
        if 0 <= j <= self.horizon:
            return np.array(self.coeffs[j])
        return np.zeros(self.coeffs.shape[1:])


@dataclass(frozen=True)
class SolutionBundle:
    """Everything the solution determines at a parameter point.

    The extended shock loading ``a_plus``, ``c0_rank`` and ``c0_canonical``
    are computed on first read, since the identification tests read only
    the transfer series; ``given`` holds the ones a bundle is built with.
    """

    model: Model
    factors: WHFactors
    ma_part: LaurentMatrix    # [B_minus^-1 A]_+, lags 0..kappa
    transfer: TransferSeries
    warnings: tuple = field(default_factory=tuple)
    given: dict = field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def a_plus(self) -> LaurentMatrix:
        """B_minus [B_minus^-1 A]_+, lags -lam..kappa."""
        if "a_plus" in self.given:
            return self.given["a_plus"]
        return a_plus(self.factors.b_minus, self.ma_part)

    @cached_property
    def c0_rank(self) -> int:
        if "c0_rank" in self.given:
            return self.given["c0_rank"]
        return numerical_rank(self.transfer.coeffs[0])[0]

    @cached_property
    def c0_canonical(self) -> bool:
        if "c0_canonical" in self.given:
            return self.given["c0_canonical"]
        return is_canonical_staircase(self.transfer.coefficient(0))


def a_plus(b_minus: LaurentMatrix, ma_part: LaurentMatrix) -> LaurentMatrix:
    """Extended shock loading B_minus * [B_minus^-1 A]_+ (lags -lam..kappa)."""
    return lp_mul(b_minus, ma_part)


def default_horizon(n: int, kappa: int, lam: int) -> int:
    """Transfer coefficients a solution carries: enough for the identification system."""
    return max((n + 1) * kappa + lam, 2)


@np.errstate(all="ignore")
def solve_stack(b_minus: np.ndarray, b_plus: np.ndarray, A: np.ndarray, horizon: int,
                inv_series: np.ndarray | None = None):
    """Moving-average parts, transfer series and failures of a stack of factored models.

    b_minus (S, lam+1, n, n) holds lags -lam..0, b_plus (S, L, n, n) and
    A (S, L, n, m) hold lags 0..L-1; inv_series, when given, the leading
    coefficients of B_minus^-1 that the factorization already computed
    (:func:`~ratex.wienerhopf.bminus_inv_plus`).  Returns M = [B_minus^-1
    A]_+ (dust trimmed, (S, L, n, m)), C_0..C_horizon ((S, horizon+1, n,
    m)) and, quietly, the mask (S,) of the samples whose M (before the dust
    rule zeroes it) or C_j are not all finite (:data:`NOT_FINITE`).
    """
    raw = bminus_inv_plus(b_minus, A, inv_series)
    ma = trim_dust(raw)
    transfer = series_divide(b_plus, ma, horizon)
    return ma, transfer, ~(np.isfinite(raw).all(axis=(1, 2, 3))
                           & np.isfinite(transfer).all(axis=(1, 2, 3)))


def solve_model(model: Model, horizon: int | None = None) -> SolutionBundle:
    """Factorize and assemble the full solution bundle for a model (errors:
    :func:`_assemble`)."""
    return solve_models([model], horizon)[0]


def solve_models(models, horizon: int | None = None) -> list:
    """:func:`solve_model` for several models, their B factored together
    (:func:`~ratex.wienerhopf.wh_factorize_all`).  Raises the error of the
    first model that fails, as solving them in turn would."""
    facs = wh_factorize_all([model.B for model in models])
    return [_assemble(model, fac, horizon) for model, fac in zip(models, facs)]


def _assemble(model: Model, fac, horizon: int | None) -> SolutionBundle:
    """The solution bundle of a model from its factorization (raised when
    it is the error that rejected the model, SingularMatrixError when the
    solution is not all finite)."""
    if isinstance(fac, Exception):
        raise fac
    if horizon is None:
        horizon = default_horizon(model.n, model.kappa, model.lam)
    L = max(model.A.max_lag, fac.b_plus.max_lag, 0) + 1
    ma, transfer, failed = solve_stack(
        fac.b_minus.coeffs[None], fac.b_plus.window(0, L - 1)[None],
        model.A.window(0, L - 1)[None], horizon,
        None if fac.inv_series is None else fac.inv_series[None])
    if failed[0]:
        raise SingularMatrixError(NOT_FINITE)
    return SolutionBundle(model=model, factors=fac, ma_part=LaurentMatrix.from_trimmed(ma[0]),
                          transfer=TransferSeries(transfer[0]))


# -- canonical quasi-lower triangular form --------------------------------


def is_canonical_staircase(c0: np.ndarray) -> bool:
    """:func:`canonical_staircase_mask` of one matrix."""
    return bool(canonical_staircase_mask(np.atleast_2d(np.asarray(c0, dtype=float))[None])[0])


def canonical_staircase_mask(c0: np.ndarray) -> np.ndarray:
    """For each matrix of an (S, n, m) stack: is the first nonzero of column
    j positive, in row i_j, with i_1 < ... < i_m?  An entry counts as
    nonzero above CF_ZERO_RTOL * max(1, max |C_0|)."""
    mag = np.abs(c0)
    tol = CF_ZERO_RTOL * mag.max(axis=(1, 2), keepdims=True, initial=1.0)
    rows = (mag > tol).argmax(axis=1)                   # first nonzero row per column
    pivot = (np.arange(len(c0))[:, None], rows, np.arange(c0.shape[2]))
    # a pivot above tol is nonzero and positive
    return (c0 > tol)[pivot].all(axis=1) & (rows[:, 1:] > rows[:, :-1]).all(axis=1)


def canonical_rotation(c0: np.ndarray) -> np.ndarray:
    """Orthogonal V such that c0 @ V is canonical quasi-lower triangular.

    Householder sweep on c0', keeping pivot columns in strictly increasing
    order and pivots positive; full column rank of c0 is required.
    """
    c0 = np.atleast_2d(np.asarray(c0, dtype=float))
    n, m = c0.shape
    if is_canonical_staircase(c0):
        return np.eye(m)
    _, _, cutoff = numerical_rank(c0)
    M = c0.T.copy()
    Q = np.eye(m)
    r = 0
    for j in range(n):
        if r == m:
            break
        x = M[r:, j]
        nx = float(lapack.norm(x))
        if nx <= cutoff:
            continue
        v = x.copy()
        v[0] += np.copysign(nx, x[0]) if x[0] != 0 else nx
        v /= lapack.norm(v)
        M[r:, :] -= 2.0 * np.outer(v, v @ M[r:, :])
        Q[r:, :] -= 2.0 * np.outer(v, v @ Q[r:, :])
        if M[r, j] < 0:
            M[r, :] *= -1.0
            Q[r, :] *= -1.0
        M[r + 1:, j] = 0.0
        r += 1
    if r < m:
        raise RankDeficientC0(f"rank(C0) = {r} < m = {m}")
    return Q.T


def _rank_drop_points(ma_part: LaurentMatrix):
    """Closed-disk points where the n x m moving-average part M loses column
    rank (see :func:`rank_drop_stack`).  Returns ``(inside, boundary)``:
    points in the open disk and within CF_BOUNDARY_MARGIN of the unit circle.
    """
    M = ma_part.window(0, max(ma_part.max_lag, 0))
    z, hit = rank_drop_stack(M[None])
    zeros = z[0][hit[0]]
    inside = np.abs(zeros) < 1.0 - CF_BOUNDARY_MARGIN
    return list(zeros[inside]), list(zeros[~inside])


def rank_drop_stack(M: np.ndarray):
    """Rank drops in the closed disk of each moving-average part of an
    (S, L, n, m) stack (lags 0..L-1).

    Relies on rank M(0) = m, which callers guarantee through rank(C0) = m:
    with U the m leading left singular vectors of M(0), Q = U'M has an
    invertible lag-0 coefficient Q_0 = U'M_0, and every rank drop of M is a
    zero of det Q.  Those are the inverses of the nonzero eigenvalues of the
    reversed polynomial z**(L-1) Q(1/z), read off its companion pencil
    (:func:`~ratex.polylab.companion_stack`) as E^-1 A, since its lead Q_0
    is invertible; zeros of det Q at infinity (a singular lead Q_{L-1})
    become eigenvalues at 0 and drop out.  These are the zeros of det M
    when n = m; when n > m each is confirmed by the SVD of M(z): a rank drop
    has sigma_min(M(z)) at most DEFAULT_TOL_RANK * max(1, max |M_j|).

    Returns ``(z, hit)``, each (S, (L-1)*m): candidate points and the mask of
    rank drops within CF_BOUNDARY_MARGIN of the closed disk; a singular
    Q_0 after all (NaN eigenvalues) puts every candidate at z = 0.
    """
    S, L, n, m = M.shape
    if L == 1:
        return np.zeros((S, 0), dtype=complex), np.zeros((S, 0), dtype=bool)
    u = lapack.svd(M[:, 0])[0][:, :, :m]
    Q = u.swapaxes(1, 2)[:, None] @ M
    A, E = companion_stack(Q[:, ::-1])
    w = lapack.pencil_eigvals(E, A)
    singular = np.isnan(w)
    finite = (w != 0) & ~singular
    z = np.zeros_like(w)
    with np.errstate(over="ignore"):
        np.divide(1.0, w, out=z, where=finite)
    hit = finite & (np.abs(z) <= 1.0 + CF_BOUNDARY_MARGIN)
    if n > m and hit.any():
        Mz = np.einsum("skl,slij->skij", np.where(hit, z, 0.0)[..., None] ** np.arange(L), M)
        smin = lapack.svdvals(Mz)[..., -1]
        scale = np.maximum(np.abs(M).max(axis=(1, 2, 3)), 1.0)
        hit &= smin <= DEFAULT_TOL_RANK * scale[:, None]
    return z, hit | singular


def cf_check_and_normalize(bundle: SolutionBundle):
    """Check the canonical-form conditions and rotate the bundle into them.

    Returns ``(V, normalized_bundle)`` with V orthogonal; raises
    RankDeficientC0 or NotInvertible when no rotation can satisfy them.
    Zeros of the moving-average part within the boundary band of the unit
    circle are reported as warnings on the returned bundle, not errors.
    Its rank decisions (C_0, rank drops) follow DEFAULT_TOL_RANK alone.
    """
    c0 = bundle.transfer.coefficient(0)
    m = bundle.model.m
    if bundle.c0_rank < m:
        raise RankDeficientC0(f"rank(C0) = {bundle.c0_rank} < m = {m}")
    inside, boundary = _rank_drop_points(bundle.ma_part)
    if inside:
        worst = min(inside, key=abs)
        raise NotInvertible(
            f"transfer function loses rank at |z| = {abs(worst):.6f} inside the unit disk")
    warnings = tuple(f"moving-average rank drop on the unit circle near z = {z:.6g}"
                     for z in boundary)
    v = canonical_rotation(c0)
    model = bundle.model
    if np.array_equal(v, np.eye(m)):
        if not warnings:
            return np.eye(m), bundle
        return np.eye(m), replace(bundle, warnings=warnings, given={
            **bundle.given, "c0_rank": bundle.c0_rank, "c0_canonical": True})
    return v, replace(
        bundle, model=Model(model.B, model.A.right_multiplied(v), lam=model.lam, kappa=model.kappa),
        ma_part=bundle.ma_part.right_multiplied(v),
        transfer=TransferSeries(bundle.transfer.coeffs @ v), warnings=warnings,
        given={"a_plus": bundle.a_plus.right_multiplied(v), "c0_rank": bundle.c0_rank,
               "c0_canonical": True})


# -- spectral density and simulation --------------------------------------


def unit_circle_grid(k: int) -> np.ndarray:
    """k points exp(2*pi*i*j/k), j = 0..k-1."""
    return np.exp(2j * np.pi * np.arange(k) / k)


def spectral_density(model: Model, a_plus_mat: LaurentMatrix, z_grid) -> np.ndarray:
    """f(z) = B^-1(z) A_plus(z) A_plus'(1/z) B^-1'(1/z) on unit-circle points.

    Returns a (k, n, n) array, one density matrix per grid point, from one
    batched solve.  Hermitian positive semidefinite by construction; the
    model-agnostic observational-equivalence oracle.
    """
    z = np.asarray(z_grid)
    bz = model.B.value(z)
    try:
        g = lapack.solve(bz, a_plus_mat.value(z))
    except np.linalg.LinAlgError as exc:
        worst = z[np.argmin(np.abs(np.linalg.det(bz)))]
        raise SingularMatrixError(f"B(z) singular at grid point z = {worst:.6g}") from exc
    return g @ np.conj(np.swapaxes(g, -1, -2))


def spectral_distance(bundle_a: SolutionBundle, bundle_b: SolutionBundle, z_grid):
    """Max-abs difference of the two spectral densities and the comparison scale."""
    fa = spectral_density(bundle_a.model, bundle_a.a_plus, z_grid)
    fb = spectral_density(bundle_b.model, bundle_b.a_plus, z_grid)
    return float(np.max(np.abs(fa - fb))), max(float(np.max(np.abs(fa))), 1e-12)


def simulate(bundle: SolutionBundle, T: int, seed: int) -> np.ndarray:
    """Sample path of length T from the truncated moving-average representation.

    It is cut at the first C_h below SIM_DECAY_RTOL * max-abs(C_0) (or at
    SIM_HORIZON_CAP), searched on series of 16, 32, 64, ... lags, each
    extending the division of the one before; the last series built is the
    one convolved with the draws.  A series that is not all finite raises
    SingularMatrixError (:data:`NOT_FINITE`).  Deterministic given the
    seed; innovations are i.i.d. standard normal.
    """
    c0_scale = max(float(np.max(np.abs(bundle.transfer.coefficient(0)))), 1e-300)
    b_plus, ma = bundle.factors.b_plus, bundle.ma_part
    g, rhs = (x.window(0, max(x.max_lag, 0))[None] for x in (b_plus, ma))
    h, coeffs = max(bundle.transfer.horizon, 16), None
    while True:
        with np.errstate(all="ignore"):
            coeffs = series_divide(g, rhs, min(h, SIM_HORIZON_CAP), prefix=coeffs)
        if not np.isfinite(coeffs).all():
            raise SingularMatrixError(NOT_FINITE)
        small = np.flatnonzero(np.max(np.abs(coeffs[0]), axis=(1, 2))
                               < SIM_DECAY_RTOL * c0_scale)
        if small.size or h >= SIM_HORIZON_CAP:
            break
        h *= 2
    coeffs = coeffs[0]
    h = int(small[0]) if small.size else SIM_HORIZON_CAP
    rng = np.random.default_rng(seed)
    m, n = bundle.model.m, bundle.model.n
    eps = rng.standard_normal((T + h, m))
    y = np.zeros((T, n))
    for j in range(h + 1):
        y += eps[h - j: h - j + T] @ coeffs[j].T
    return y
