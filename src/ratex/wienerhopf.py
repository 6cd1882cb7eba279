"""Wiener-Hopf factorization B = B_minus * B_plus with unit normalization.

B_minus is a polynomial in 1/z equal to the identity at infinity and
invertible outside the open unit disk; B_plus is a polynomial in z
invertible on the closed unit disk.  Existence of this factorization (with
zero partial indices) is exactly the existence/uniqueness condition for a
stationary solution, so failure modes are reported as typed errors that
downstream diagnostics can turn into verdicts.

Algorithm: form P(z) = z**lam * B(z), transpose so the sought monic
degree-lam factor becomes a right divisor, scale its columns (which keeps
its zeros and, up to a similarity, its divisors), linearize as a block
companion pencil (A, E), and split its spectrum at the unit circle with
the inverse-free spectral divide-and-conquer iteration (Malyshev 1989;
Bai, Demmel and Gu, Numer. Math. 1997).  Each step is one QR of [E; -A]
and squares the eigenvalues of the pencil, so those inside the circle go
to 0 and all others, infinite ones included, to infinity.  The projector
(A_p + E_p)^-1 E_p of the settled pencil maps onto the right deflating
subspace of the zeros inside the circle, which is the null space of A_p:
one SVD of A_p gives the stable count and an orthonormal basis, from which
the divisor is read.  The zeros counted for the verdict are the
eigenvalues of the two pencils restricted to that subspace and to its
complement, where the infinite eigenvalues are split off; only that zero
list needs a rank decision on a lead.  B_plus then falls out of the long
division B_minus**-1 * B with exact degree cutoff, and the reconstruction
B = B_minus B_plus is the certificate (a few Newton steps on it first,
where the split's subspace alone does not meet it).  The leading
coefficients of the series B_minus**-1 stay on the factors, so the
solution's [B_minus**-1 A]_+ extends them rather than dividing again.

One flow serves one model and a stack of them: :func:`wh_factorize` is
:func:`wh_factorize_stack` at one sample.  The stack builds all pencils at
once and iterates them together, retiring each as it settles; the
restricted pencils, the divisors, B_plus and the reconstruction check run
stacked too.  Samples are indexed only where their outcomes part, so one
sample, or a stack whose samples all settle with the same count, passes
through the kernels whole; their QRs, SVDs, solves and eigenvalues are
:mod:`ratex.lapack`'s.  For lam = 0 the counts are all that is needed, so
a stacked eigenvalue screen decides every sample its error bound allows
and only the others are split.  Everything here is numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lapack
from .polylab import (
    PENCIL_INFINITE_RTOL,
    PENCIL_SINGULAR_RTOL,
    LaurentMatrix,
    SingularMatrixError,
    _deflate_infinite,
    companion_stack,
    series_divide,
    trim_dust,
)


class FactorizationError(Exception):
    """The required factorization does not exist (or is numerically unresolvable).

    ``zeros`` holds the zeros of det(z**lam B(z)) when they were computed
    before the failure (empty otherwise), so verdicts can report them.
    """

    def __init__(self, message: str, zeros=()):
        super().__init__(message)
        self.zeros = np.asarray(zeros, dtype=complex)


class ZerosOnUnitCircle(FactorizationError):
    """det(z**lam B(z)) vanishes within the boundary tolerance of |z| = 1."""


class WrongStableCount(FactorizationError):
    """The number of zeros inside the unit circle differs from n * lam."""


class DivisorExtractionSingular(FactorizationError):
    """The deflating-subspace block is numerically singular (nonzero partial indices)."""


# relative band around |z| = 1 whose zeros count as on the circle
BOUNDARY_TOL = 1e-9

# relative bound on max-abs(B - B_minus B_plus), and the condition floor of
# the deflating-subspace block the divisor is read from
RECONSTRUCTION_RTOL = 1e-8
EXTRACTION_RCOND = 1e-10
# Newton steps on a divisor that misses RECONSTRUCTION_RTOL (_newton_divisor)
NEWTON_STEPS = 3

_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny

# Column scaling takes out a common right factor whose R has a diagonal
# ratio below this: square root of the lead's rank threshold, well above the
# nearly singular leads that make a pencil's split hard to settle.
_SCALING_RCOND = np.sqrt(PENCIL_INFINITE_RTOL)

# The split compares R from this step on.  Pencils with zeros in
# 0.3 < |z| < 3 take 7-9 steps; one whose zeros all lie far from the circle
# would settle sooner and runs a step or two more, which costs less at one
# sample than the comparisons skipped on all the others.
_SPLIT_MIN_STEPS = 6


@dataclass(frozen=True)
class WHFactors:
    """Factors of B = B_minus * B_plus, the reconstruction certificate and the
    zeros of det(z**lam B(z)) the factorization was decided on.

    ``inv_series`` holds the leading coefficients of B_minus^-1, a power
    series in 1/z (lags 0, -1, ...), as B_plus was divided out with them;
    :func:`bminus_inv_plus` extends rather than recomputes them."""

    b_minus: LaurentMatrix
    b_plus: LaurentMatrix
    residual: float
    scale: float = 1.0
    zeros: np.ndarray = field(default_factory=lambda: np.array([], dtype=complex))
    inv_series: np.ndarray | None = None

    def __post_init__(self):
        bm = self.b_minus
        if bm.max_lag != 0 or not (bm.coeffs[-1] == np.eye(bm.rows)).all():
            raise ValueError("b_minus must equal the identity at lag 0")
        if self.inv_series is not None:
            self.inv_series.flags.writeable = False


def wh_factorize(B: LaurentMatrix, boundary: float = BOUNDARY_TOL) -> WHFactors:
    """Factor B = B_minus * B_plus or raise a typed FactorizationError.

    Parameters
    ----------
    B : LaurentMatrix
        Square n x n Laurent polynomial matrix; lam is read off as
        max(0, -min_lag) after trimming.
    boundary : float, optional
        Band around the unit circle whose zeros count as on it.

    The zeros counted are those of det(z**lam B(z)): the finite generalized
    eigenvalues of the companion pencil.  Exactly n * lam of them must lie
    inside the unit circle.  A positive min_lag leaves lam = 0 and
    contributes n * min_lag zeros at the origin, which count as inside, so
    B = z**k B_plus with k > 0 raises WrongStableCount.  B is trimmed,
    taken on its lags -lam..max(max_lag, 0) and factored as the one sample
    of :func:`wh_factorize_stack`: for lam > 0 the split of the pencil at
    the unit circle yields both the zeros and B_minus; for lam = 0 the
    eigenvalue screen counts the zeros and the split runs only where the
    screen cannot decide.  The zeros are returned on the factors or the
    error.

    Raises
    ------
    ZerosOnUnitCircle, WrongStableCount, DivisorExtractionSingular
        The three ways the existence/uniqueness condition fails.  An
        identically zero det(B), and a split at a band edge that does not
        settle (a zero on the edge, or a nearly singular det(B)), are
        reported as ZerosOnUnitCircle; a divisor that does not reconstruct
        B within RECONSTRUCTION_RTOL as DivisorExtractionSingular.
    """
    fac = wh_factorize_all([B], boundary)[0]
    if isinstance(fac, FactorizationError):
        raise fac
    return fac


def wh_factorize_all(Bs, boundary: float = BOUNDARY_TOL) -> list:
    """:func:`wh_factorize` for several B at once.

    Each B is trimmed and taken on its lags -lam..max(max_lag, 0); those
    that share n and that window are factored as one stack of
    :func:`wh_factorize_stack`.  Returns per B its WHFactors or the
    FactorizationError that rejected it.
    """
    out, groups = [None] * len(Bs), {}
    for i, B in enumerate(Bs):
        if B.rows != B.cols:
            raise ValueError("B must be square")
        t = B.trimmed()
        lam = max(0, -t.min_lag)
        groups.setdefault((B.rows, lam, max(t.max_lag, 0)), []).append((i, t))
    for (_, lam, hi), members in groups.items():
        b_minus, b_plus, errors, residual, zeros, inv = wh_factorize_stack(
            np.array([t.window(-lam, hi) for _, t in members]), lam, boundary)
        for s, (i, t) in enumerate(members):
            out[i] = errors[s] or WHFactors(
                LaurentMatrix(b_minus[s], -lam),
                LaurentMatrix.from_trimmed(b_plus[s]) if lam else t,
                residual=float(residual[s]), scale=max(t.max_abs(), 1.0), zeros=zeros[s],
                inv_series=inv[s])
    return out


@np.errstate(all="ignore")
def wh_factorize_stack(Bc: np.ndarray, lam: int, boundary: float = BOUNDARY_TOL):
    """:func:`wh_factorize` for a stack of B, (S, lam+kappa+1, n, n) at lags
    -lam..kappa, already dust trimmed (:func:`~ratex.polylab.trim_dust`).

    Every sample is factored on the declared window.  The companion pencils
    of the transposed (z^lam B)' are built at once (a one-lag window gets a
    zero lag on top).  A zero top lag gives infinite eigenvalues, which the
    split counts outside the circle; a zero bottom lag adds n zeros at the
    origin to the count and to the required n * lam alike, so the verdict
    is that of the trimmed B.

    For lam = 0 the stacked eigenvalue screen (:func:`_screen_counts`)
    decides every sample with a nonsingular lead whose error bound keeps
    its zeros off the band edges, and B_plus is B.  All other samples are
    split at the unit circle together (:func:`_unit_circle_split`).  A
    split that settles within :func:`_certified_steps` has no zero near
    the band, so its rank is the stable count; the zeros reported are the
    eigenvalues of the pencils restricted to the inside subspace and to its
    complement (:func:`_split_zeros`), and must count the same.  Samples
    that share a count share these kernels; when every sample shares one
    outcome, the stack passes through them whole, without per-sample
    indexing.  Any other sample reports the zeros of its whole pencil
    (:func:`_pencil_zeros`) and is counted by two more splits, at the band
    edges 1 -/+ boundary (:func:`_band_counts`).  The divisors of the
    samples that pass (:func:`_stable_monic_divisor`), B_plus and the
    reconstruction check then run stacked on the inside subspaces; a
    sample whose residual exceeds its bound gets a few Newton steps
    (:func:`_newton_divisor`) before it is rejected.  Floating-point
    warnings are off throughout: a non-finite intermediate fails one of
    these checks instead.

    Returns B_minus (S, lam+1, n, n) at lags -lam..0, B_plus (S, kappa+1,
    n, n) at lags 0..kappa, per sample the FactorizationError that rejected
    it (None where it factored), the reconstruction residuals (S,), per
    sample the zeros it was decided on, and the coefficients (S, kappa+1,
    n, n) of B_minus^-1 at lags 0..-kappa that B_plus was divided out with.
    A rejected sample has B_minus = I, B_plus = 0 and residual 0.
    """
    S, q, n = Bc.shape[:3]
    k, kappa = n * lam, q - 1 - lam
    P = Bc.swapaxes(2, 3)           # same determinant; B_minus' divides (z^lam B)'
    if q == 1:
        P = np.concatenate([P, np.zeros_like(P)], axis=1)
    R = _column_scaling(P)
    if R is not None:
        Rinv = lapack.inv(R)
        P = P @ Rinv[:, None]
    A, E = companion_stack(P)
    errors, zeros = [None] * S, [None] * S
    divisors = []                   # (lanes, AA, EE, Z) of samples with n * lam inside
    rest = np.arange(S)             # samples not counted yet

    def check(lanes, stable, on_band):
        """Reject the lanes whose zero counts fail (:func:`_check_counts`)."""
        bad = (stable != k) | (on_band != 0)
        if bad.any():
            for s, c, o in zip(lanes[bad].tolist(), stable[bad].tolist(), on_band[bad].tolist()):
                if errors[s] is None:
                    try:
                        _check_counts(c, o, n, lam, boundary, zeros[s])
                    except FactorizationError as exc:
                        errors[s] = exc

    if not lam:
        s_E = lapack.svdvals(E)
        screen = s_E[:, -1] > PENCIL_INFINITE_RTOL
        if screen.any():
            lanes = rest[screen]
            stable, on_band, w, decided = _screen_counts(A[lanes], E[lanes], s_E[lanes], boundary)
            if not decided.all():
                screen[lanes[~decided]] = False
                lanes, stable, on_band, w = (x[decided] for x in (lanes, stable, on_band, w))
            for s, ws in zip(lanes.tolist(), w):
                zeros[s] = ws
            check(lanes, stable, on_band)
            rest = rest[~screen]
    if rest.size:
        Ar, Er = (A, E) if rest.size == S else (A[rest], E[rest])
        U, c, steps, hard = _unit_circle_split(Ar, Er, boundary)
        hard |= steps > _certified_steps(boundary)
        if hard.any() or c.min() != c.max():
            groups = [(int(cg), np.flatnonzero((c == cg) & ~hard)) for cg in np.unique(c[~hard])]
        else:                       # one count, every sample settled
            groups = [(int(c[0]), slice(None))]
        for cg, g in groups:
            z, AA, EE, agree = _split_zeros(Ar[g], Er[g], U[g], cg, boundary)
            lanes, Z = rest[g], U[g]
            if not agree.all():
                hard[np.arange(rest.size)[g][~agree]] = True
                lanes, AA, EE, Z = lanes[agree], AA[agree], EE[agree], Z[agree]
                z = [zs for zs, ok in zip(z, agree) if ok]
            for s, zs in zip(lanes.tolist(), z):
                zeros[s] = zs
            if cg != k:
                check(lanes, np.full(lanes.size, cg), np.zeros(lanes.size, dtype=int))
            elif lam and lanes.size:
                divisors.append((lanes, AA, EE, Z[:, :, :k]))
        rest = rest[hard]
    for s in rest.tolist():
        try:
            zeros[s] = _pencil_zeros(A[s], E[s])
        except SingularMatrixError:
            errors[s] = ZerosOnUnitCircle(
                "det(B) is identically zero; B(z) is nowhere invertible")
    if rest.size:
        rest = rest[[errors[s] is None for s in rest.tolist()]]
    if rest.size:
        stable, on_band, U, unsettled = _band_counts(A[rest], E[rest], boundary)
        for s in rest[unsettled].tolist():
            errors[s] = ZerosOnUnitCircle(
                f"the split of det(z^{lam} B(z)) at |z| = 1 -/+ {boundary:g} did not settle: "
                "a zero lies on a band edge, or the determinant is nearly "
                "identically zero", zeros[s])
        check(rest, stable, on_band)
        g = np.flatnonzero((stable == k) & (on_band == 0) & ~unsettled)
        if lam and g.size:
            AA, EE = _restrict(A[rest[g]], E[rest[g]], U[g], k)[:2]
            divisors.append((rest[g], AA, EE, U[g, :, :k]))

    if lam and divisors:
        whole = len(divisors) == 1 and divisors[0][0].size == S    # every sample, in order
        lanes, AA, EE, Z = (divisors[0] if len(divisors) == 1 else
                            (np.concatenate(x) for x in zip(*divisors)))
        Bl = Bc if whole else Bc[lanes]
        bm, ok = _stable_monic_divisor(AA, EE, Z, n, lam)
        if R is not None:           # the divisors of P R^-1 are R D R^-1
            bm[:, :lam] = (R[lanes].swapaxes(1, 2)[:, None] @ bm[:, :lam]
                           @ Rinv[lanes].swapaxes(1, 2)[:, None])
        bp, res, f = _plus_factor(bm, Bl)
        bound = RECONSTRUCTION_RTOL * np.maximum(np.abs(Bl).max(axis=(1, 2, 3)), 1.0)
        over = res > bound
        if (ok & over).any():
            for i in np.flatnonzero(ok & over).tolist():
                bm[i], bp[i], res[i], f[i] = _newton_divisor(bm[i], bp[i], res[i], f[i], Bl[i])
            over = res > bound
        bad = ~ok | over
        if whole and not bad.any():
            return bm, bp, errors, res, zeros, f
        for i in np.flatnonzero(bad).tolist():
            errors[lanes[i]] = DivisorExtractionSingular(
                "deflating-subspace block is numerically singular; no monic "
                "stable divisor of the required degree exists" if not ok[i] else
                f"reconstruction residual {res[i]:.3e} exceeds {RECONSTRUCTION_RTOL:g} * scale",
                zeros[lanes[i]])

    b_minus = np.zeros((S, lam + 1, n, n))
    inv = np.zeros((S, kappa + 1, n, n))
    b_minus[:, lam] = inv[:, 0] = np.eye(n)
    b_plus, residual = np.zeros((S, kappa + 1, n, n)), np.zeros(S)
    if not lam:                     # B_plus = B where it passed
        b_plus[:] = Bc
        if any(errors):
            b_plus[[e is not None for e in errors]] = 0.0
    elif divisors:
        good = ~bad
        lanes = lanes[good]
        b_minus[lanes], b_plus[lanes], residual[lanes], inv[lanes] = \
            bm[good], bp[good], res[good], f[good]
    return b_minus, b_plus, errors, residual, zeros, inv


def _column_scaling(P: np.ndarray):
    """R (S, n, n) for a stack of polynomials P (S, d + 1, n, n) whose
    common right factor is nearly singular, None when none is.

    R is from the QR of the block column [P_0; ..; P_d], so the columns of
    P R^-1 are orthonormal.  P R^-1 has the zeros of P, and its monic right
    divisors are R D R^-1 for those D of P, so the split may run on it
    instead.  That takes out a nearly singular common right factor, which
    leaves every pencil of P nearly singular, but adds rounding to all
    others; so it is done only where R's diagonal spans more than
    1 / _SCALING_RCOND, and R is the identity in the other samples and
    where it is numerically singular itself (a common right null vector:
    det P is identically zero).
    """
    S, d1, n = P.shape[:3]
    X = P.reshape(S, d1 * n, n).copy()
    lapack.qr_raw(X)
    diag = np.abs(X.diagonal(0, 1, 2))
    ratio = diag.min(axis=1) / diag.max(axis=1, initial=_TINY)
    scale = (ratio < _SCALING_RCOND) & (ratio > PENCIL_SINGULAR_RTOL)
    if not scale.any():
        return None
    R = np.triu(X[:, :n])
    R[~scale] = np.eye(n)
    return R


def _split_cap(boundary: float) -> int:
    """Iteration cap of :func:`_unit_circle_split`: four steps more than the
    squarings that take rho = 1 - boundary down to eps, rho**(2**j) <= eps,
    so a zero settles unless it lies within a few percent of boundary of
    the radius split at (boundary is taken within [eps, 1])."""
    return math.ceil(math.log2(-math.log(_EPS) / min(max(boundary, _EPS), 1.0))) + 4


def _certified_steps(boundary: float) -> int:
    """Steps within which a settled split leaves no zero within 16 *
    boundary of the circle: after j <= log2(1 / boundary) - 4 squarings
    such a zero still has modulus above e^-1 (or below e), so the pencil
    could not have settled."""
    return math.floor(math.log2(1.0 / max(boundary, _EPS))) - 4


def _unit_circle_split(A: np.ndarray, E: np.ndarray, boundary: float):
    """Split a stack of pencils det(z E - A) (S, N, N) at the unit circle.

    Inverse-free spectral divide and conquer: each step takes the QR
    [E; -A] = Q [R; 0] and replaces (A, E) by (Q12' A, Q22' E), which
    squares the eigenvalues of the pencil.  A lane is retired once the
    moduli of R's diagonal have settled: they changed by at most 10 N eps
    of the largest, or by at most PENCIL_SINGULAR_RTOL and no less than at
    the step before (rounding noise).  Lanes stop at the cap of
    :func:`_split_cap` otherwise.  In the settled pencil (A_p, E_p) the
    eigenvalues inside the circle went to 0 and all others to infinity, so
    the right deflating subspace inside is the null space of A_p and the
    one outside that of E_p.  Their dimensions, from the singular values
    above PENCIL_SINGULAR_RTOL of the larger leading one, must add to N.

    Returns (U (S, N, N), counts (S,), steps (S,), failed (S,)): U is
    orthogonal with its leading counts columns spanning the subspace
    inside, steps the step at which each lane settled, and failed marks
    lanes that did not settle by the cap or whose subspaces do not add up
    (a singular pencil, or an eigenvalue on the circle).
    """
    S, N = A.shape[:2]
    cap, settled = _split_cap(boundary), 10 * N * _EPS
    retired = []                    # (lanes, A_p, E_p, step) settled together
    live, a, e, r_prev, d_prev = np.arange(S), A, E, None, np.inf
    for j in range(1, cap + 1):
        Q, R = lapack.qr_complete(np.concatenate([e, -a], axis=1))
        Qt = Q[:, :, N:].swapaxes(1, 2)
        a, e = Qt[:, :, :N] @ a, Qt[:, :, N:] @ e
        if j < _SPLIT_MIN_STEPS - 1:
            continue
        r = np.abs(R.diagonal(0, 1, 2))
        if r_prev is not None:
            d = np.abs(r - r_prev).max(axis=1) / r_prev.max(axis=1, initial=_TINY)
            # settled, or stalled at rounding noise (no smaller than the step before)
            done = d <= np.where(d >= d_prev, PENCIL_SINGULAR_RTOL, settled)
            retire = np.count_nonzero(done)
            if retire == done.size:
                break
            if retire:
                retired.append((live[done], a[done], e[done], j))
                live, a, e, r, d = live[~done], a[~done], e[~done], r[~done], d[~done]
            d_prev = d
        r_prev = r
    else:
        j = cap + 1
    retired.append((live, a, e, j))
    if len(retired) == 1:
        Ap, Ep, steps = a, e, np.full(S, j)
    else:
        order = np.argsort(np.concatenate([t[0] for t in retired]))
        Ap, Ep = (np.concatenate([t[i] for t in retired])[order] for i in (1, 2))
        steps = np.concatenate([np.full(len(t[0]), t[3]) for t in retired])[order]
    s_E = lapack.svdvals(Ep)
    _, s_A, Vt = lapack.svd(Ap)
    above = np.concatenate([s_A, s_E], axis=1) > (
        PENCIL_SINGULAR_RTOL * np.maximum(s_A[:, :1], s_E[:, :1]))
    outside = above[:, :N].sum(axis=1)
    failed = (steps > cap) | (above.sum(axis=1) != N)
    return Vt[:, ::-1].swapaxes(1, 2), N - outside, steps, failed


def _band_counts(A: np.ndarray, E: np.ndarray, boundary: float):
    """Zero counts of a stack of pencils from splits at the band edges.

    The eigenvalues of (A, r E) are those of (A, E) divided by r, so the
    split of (A, (1 -/+ boundary) E) at the unit circle counts the zeros
    inside |z| = 1 -/+ boundary; both splits run as one stack.  Returns
    (stable, on_band, U, unsettled): the counts, the U of the split at
    1 - boundary (its leading stable columns span the stable subspace, of
    (A, E) as well) and the lanes where either split failed or the counts
    contradict each other: a zero on a band edge, or a nearly singular
    pencil.
    """
    S = A.shape[0]
    if boundary >= 1.0:             # the band covers the open disk
        U, hi, _, unsettled = _unit_circle_split(A, (1.0 + boundary) * E, boundary)
        return np.zeros(S, dtype=int), hi, U, unsettled
    # both edges in one stack of 2S lanes; each lane settles on its own
    U, counts, _, failed = _unit_circle_split(
        np.concatenate([A, A]), np.concatenate([(1.0 + boundary) * E, (1.0 - boundary) * E]),
        boundary)
    hi, stable = counts[:S], counts[S:]
    return stable, hi - stable, U[S:], failed[:S] | failed[S:] | (hi < stable)


def _restrict(A: np.ndarray, E: np.ndarray, U: np.ndarray, c: int):
    """Blocks of Y'(A, E)U for a stack of pencils (S, N, N) and orthogonal U
    whose leading c columns span a right deflating subspace, Y from the QR
    of E U_c: the c x c blocks (AA, EE) of the pencil restricted to that
    subspace and the trailing blocks (A22, E22) of the rest."""
    N = A.shape[1]
    Y = lapack.qr_complete(E @ U[:, :, :c])[0] if c else np.eye(N)
    Yt = Y.swapaxes(-1, -2)
    A2, E2 = Yt @ A @ U, Yt @ E @ U
    return A2[:, :c, :c], E2[:, :c, :c], A2[:, c:, c:], E2[:, c:, c:]


def _split_zeros(A: np.ndarray, E: np.ndarray, U: np.ndarray, c: int, boundary: float):
    """Zeros of a stack of pencils (S, N, N) split by U (S, N, N), whose
    leading c columns span the right deflating subspace inside the circle.

    The restricted pencil (AA, EE) (:func:`_restrict`) holds the zeros
    inside, the eigenvalues of EE^-1 AA.  The trailing one holds the zeros
    outside and the infinite eigenvalues; its reversal has no eigenvalue
    near 0 but the infinite ones, so the outside zeros are the inverses of
    the eigenvalues of A22^-1 E22, after the infinite ones are split off
    (:func:`~ratex.polylab._deflate_infinite`) where E22 has a singular
    value at or below PENCIL_INFINITE_RTOL.  Returns the zeros per sample,
    AA, EE and the mask of samples whose zeros inside and outside lie off
    the band 1 -/+ boundary on their own sides.
    """
    AA, EE, A22, E22 = _restrict(A, E, U, c)
    S, N = A.shape[:2]
    inside = lapack.pencil_eigvals(EE, AA) if c else np.zeros((S, 0), dtype=complex)
    agree = (np.abs(inside) < 1.0 - boundary).all(axis=1)
    if c == N:
        return list(inside), AA, EE, agree
    regular = lapack.svdvals(E22)[:, -1] > PENCIL_INFINITE_RTOL
    if regular.all():
        mu = lapack.pencil_eigvals(A22, E22)
        agree &= (np.abs(mu) * (1.0 + boundary) < 1.0).all(axis=1)
        return list(np.concatenate([inside, 1.0 / mu], axis=1)), AA, EE, agree
    mu = [None] * S
    if regular.any():
        for i, m in zip(np.flatnonzero(regular),
                        lapack.pencil_eigvals(A22[regular], E22[regular])):
            mu[i] = m
    for i in np.flatnonzero(~regular):
        try:
            a, e, _ = _deflate_infinite(A22[i], E22[i])
        except SingularMatrixError:     # left to the whole pencil to report
            a, e, agree[i] = np.zeros((0, 0)), None, False
        mu[i] = lapack.eigvals(lapack.solve(a, e)) if a.size else np.zeros(0)
    agree &= [bool((np.abs(m) * (1.0 + boundary) < 1.0).all()) for m in mu]
    zeros = [np.concatenate([zi, 1.0 / m]) for zi, m in zip(inside, mu)]
    return zeros, AA, EE, agree


def _pencil_zeros(A: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Finite eigenvalues of one pencil (A, E), the infinite ones split off
    first (:func:`~ratex.polylab._deflate_infinite`, which raises
    SingularMatrixError for a singular pencil): the zeros reported for a
    sample that its split could not decide."""
    a, e, _ = _deflate_infinite(A, E)
    return lapack.eigvals(lapack.solve(e, a)).astype(complex)


def _screen_counts(A: np.ndarray, E: np.ndarray, s_E: np.ndarray, boundary: float):
    """Zero counts of a stack of pencils det(z E - A) (S, N, N) with
    nonsingular leads E of singular values s_E (S, N), from the stacked
    eigenvalues of E^-1 A.

    A sample is decided when no eigenvalue modulus lies within its error
    bound of a band edge 1 -/+ boundary.  The bound is the first-order one:
    condition number kappa_i of the eigenvalue (from the eigenvectors)
    times N eps times the backward errors of the solve and the eigenvalue
    routine on E^-1 A, plus that of a backward-stable method on (A, E)
    itself.  An exactly defective sample is left undecided, alone.  Returns
    (stable, on_band, zeros, decided).
    """
    N = A.shape[1]
    M = lapack.solve(E, A)
    w, X = lapack.eig(M)
    Y = lapack.inv_or_nan(X)        # NaN for an exactly defective sample: undecided
    smax, smin = s_E[:, :1], s_E[:, -1:]
    mods = np.abs(w)
    with np.errstate(invalid="ignore", over="ignore"):
        cond_w = lapack.norm(X, axis=1) * lapack.norm(Y, axis=2)
        bound = N * _EPS * cond_w * (
            (smax / smin + 1.0) * lapack.norm(M, axis=(1, 2))[:, None]
            + (lapack.norm(A, axis=(1, 2))[:, None] + mods * smax) / smin)
        near = ~(bound < np.minimum(np.abs(mods - (1.0 - boundary)),
                                    np.abs(mods - (1.0 + boundary))))
    stable = np.sum(mods < 1.0 - boundary, axis=1)
    on_band = np.sum(np.abs(mods - 1.0) <= boundary, axis=1)
    return stable, on_band, w.astype(complex), ~near.any(axis=1)


def _check_counts(stable: int, on_band: int, n: int, lam: int, boundary: float, zeros):
    """The existence/uniqueness verdict on the zero counts of det(z^lam B(z))."""
    if on_band:
        raise ZerosOnUnitCircle(
            f"{on_band} zero(s) of det(z^{lam} B(z)) within {boundary:g} "
            "of the unit circle", zeros)
    if stable != n * lam:
        raise WrongStableCount(
            f"found {stable} zero(s) inside the unit circle, need exactly {n * lam}", zeros)


def _newton_divisor(bm: np.ndarray, bp: np.ndarray, res: float, f: np.ndarray,
                    Bc: np.ndarray):
    """NEWTON_STEPS Newton steps on B = B_minus B_plus for one sample whose
    split gave a divisor that does not reconstruct B within RECONSTRUCTION_RTOL.

    The split's subspace, accurate to its conditioning, need not make
    B_minus an exact divisor of a nearby B as an ordered QZ would.  Each
    step solves the linearization dB_minus B_plus + B_minus dB_plus = B -
    B_minus B_plus for dB_minus at lags -lam..-1 and dB_plus at 0..kappa
    (uniquely, as B_minus and B_plus share no zero) and recomputes B_plus,
    the residual and the inverse series f of B_minus (:func:`_plus_factor`);
    the best of them is kept.
    """
    lam, n = bm.shape[0] - 1, bm.shape[1]
    L, I = Bc.shape[0], np.eye(n)
    best = bm, bp, res, f
    for _ in range(NEWTON_STEPS):
        kappa = bp.shape[0] - 1
        M = np.zeros((L, n * n, L, n * n))
        for i in range(lam):
            for j in range(kappa + 1):
                M[i + j, :, i] += np.kron(I, bp[j].T)
        for i in range(lam + 1):
            for j in range(kappa + 1):
                M[i + j, :, lam + j] += np.kron(bm[i], I)
        recon = np.zeros_like(Bc)
        for i in range(lam + 1):
            recon[i:i + kappa + 1] += bm[i] @ bp
        M = M.reshape(L * n * n, -1)
        try:
            step = np.linalg.lstsq(M, (Bc - recon).ravel(), rcond=None)[0]
        except np.linalg.LinAlgError:
            break
        bm = bm.copy()
        bm[:lam] += step[:lam * n * n].reshape(lam, n, n)
        bp, res, f = (x[0] for x in _plus_factor(bm[None], Bc[None]))
        if res < best[2]:
            best = bm, bp, res, f
    return best


def _plus_factor(b_minus: np.ndarray, Bc: np.ndarray):
    """B_plus = [B_minus^-1 B]_+ (exact) and the reconstruction residual
    max |B_minus B_plus - B| for a stack: b_minus (S, lam+1, n, n) at lags
    -lam..0, B (S, lam+kappa+1, n, n) at lags -lam..kappa.  B_plus and the
    product are dust trimmed, as LaurentMatrix results are.  Returns them
    and the inverse series of B_minus they were computed with (S, kappa+1,
    n, n) (:func:`bminus_inv_plus`)."""
    lam = b_minus.shape[1] - 1
    f = _inverse_series(b_minus, Bc.shape[1] - lam - 1)
    b_plus = trim_dust(bminus_inv_plus(b_minus, Bc[:, lam:], f))
    recon = np.zeros(Bc.shape)
    for i in range(lam + 1):
        recon[:, i:i + b_plus.shape[1]] += b_minus[:, i, None] @ b_plus
    recon = trim_dust(recon)
    return b_plus, np.abs(recon - Bc).max(axis=(1, 2, 3)), f


def _inverse_series(b_minus: np.ndarray, horizon: int, prefix: np.ndarray | None = None):
    """Coefficients 0..horizon of B_minus^-1 in powers of 1/z for a stack
    b_minus (S, lam+1, n, n) at lags -lam..0, after the dust rule; a prefix
    of them (S, p, n, n) is extended rather than recomputed."""
    n = b_minus.shape[2]
    return series_divide(trim_dust(b_minus)[:, ::-1], np.eye(n)[None, None], horizon, prefix)


def bminus_inv_plus(b_minus: np.ndarray, A: np.ndarray, f: np.ndarray | None = None) -> np.ndarray:
    """Nonnegative-lag part of B_minus^-1 A for a stack: b_minus (S, lam+1,
    n, n) at lags -lam..0, A (S, L, n, c) at lags 0..L-1.

    The lag-k coefficient is a finite sum of inverse-series coefficients of
    B_minus (in powers of 1/z, after the dust rule) against A_{k..L-1}, so
    no truncation is involved.  ``f`` holds leading coefficients of that
    series already computed (:attr:`WHFactors.inv_series`); only those
    beyond it are.  Returns (S, L, n, c), not trimmed.
    """
    L = A.shape[1]
    if f is None or f.shape[1] < L:
        f = _inverse_series(b_minus, L - 1, f)
    out = np.empty(A.shape)
    fs, As = list(f.swapaxes(0, 1)[:L]), list(A.swapaxes(0, 1))     # per-lag views
    for k, acc in enumerate(out.swapaxes(0, 1)):
        np.matmul(fs[0], As[k], out=acc)
        for i in range(1, L - k):
            acc += fs[i] @ As[k + i]
    return out


def _stable_monic_divisor(AA, EE, Z, n: int, lam: int):
    """B_minus = I + sum F_i z^-i for a stack of unit-circle splits.

    Takes the split of the companion pencil of the transposed polynomial
    Q(z) = (z^lam B(z))' with k = n*lam generalized eigenvalues inside the
    unit circle: an orthonormal basis Z (S, N, k) of their right deflating
    subspace and the pencil restricted to it, (AA, EE) k x k.  The monic
    right divisor of Q of degree lam carrying them is read off that
    subspace.  Returns the (S, lam+1, n, n) coefficients of B_minus at lags
    -lam..0 and the mask of samples whose subspace block is nonsingular
    (the others hold no divisor).
    """
    S, N, k = Z.shape
    U = Z[:, :k]
    svals = lapack.svdvals(U)
    ok = svals[:, -1] > EXTRACTION_RCOND * np.maximum(svals[:, 0], 1.0)
    sel = slice(None) if ok.all() else ok
    out = np.zeros((S, lam + 1, n, n))
    out[:, lam] = np.eye(n)
    if N > k:
        v_next = Z[sel, k:k + n]
    else:
        # degree-lam polynomial: advance the last block one step via the
        # restricted pencil map W = S_E^-1 S_A
        W = lapack.solve(EE[sel], AA[sel])
        v_next = Z[sel, k - n:] @ W
    L = -v_next @ lapack.inv(U[sel])        # [L_0 ... L_{lam-1}]
    out[sel, :lam] = L.reshape(-1, n, lam, n).transpose(0, 2, 3, 1)
    return out, ok
