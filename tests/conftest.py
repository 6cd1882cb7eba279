"""Shared builders for random models that satisfy the solvability conditions.

Valid models are assembled from their factored form: a normalized left
factor with all zeros inside the unit circle, a right factor invertible on
the closed disk, and a moving-average part invertible on the closed disk.
This keeps every generated point inside the parameter space by
construction, with the true factors available as oracles.
"""

import numpy as np
import pytest

from ratex.polylab import PENCIL_INFINITE_RTOL, LaurentMatrix, Model, lp_mul, trim_dust
from ratex.resolve import canonical_rotation, solve_model
from ratex.wienerhopf import BOUNDARY_TOL


def spectral_scale(rng, n, radius):
    """Random n x n matrix rescaled to spectral radius <= radius."""
    a = rng.standard_normal((n, n))
    rho = max(np.abs(np.linalg.eigvals(a)).max(), 1e-3)
    return a * (radius / rho) * rng.uniform(0.4, 1.0)


def invertible_stable(rng, n, lo=0.2, hi=0.75):
    """Orthogonal-similar to a diagonal with |eigenvalues| in [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.diag(rng.choice([-1.0, 1.0], n) * rng.uniform(lo, hi, n))
    return q @ d @ q.T


def random_b_minus(rng, n, lam):
    out = LaurentMatrix.identity(n)
    for _ in range(lam):
        out = lp_mul(out, LaurentMatrix.from_coeffs(
            [-spectral_scale(rng, n, 0.8), np.eye(n)], -1, trim=False))
    return out


def random_b_plus(rng, n, kappa, nonsingular_lead=False):
    g0 = rng.standard_normal((n, n))
    while abs(np.linalg.det(g0)) < 0.1:
        g0 = rng.standard_normal((n, n))
    out = LaurentMatrix.constant(g0)
    for _ in range(kappa):
        u = invertible_stable(rng, n) if nonsingular_lead else spectral_scale(rng, n, 0.75)
        out = lp_mul(out, LaurentMatrix.from_coeffs([np.eye(n), -u], 0, trim=False))
    return out


def random_ma_part(rng, n, m, kappa):
    """n x m polynomial with rank m on the closed unit disk."""
    core = LaurentMatrix.constant(np.eye(m))
    for _ in range(kappa):
        core = lp_mul(core, LaurentMatrix.from_coeffs(
            [np.eye(m), -spectral_scale(rng, m, 0.75)], 0, trim=False))
    n0 = rng.standard_normal((m, m))
    while abs(np.linalg.det(n0)) < 0.1:
        n0 = rng.standard_normal((m, m))
    core = lp_mul(LaurentMatrix.constant(n0), core)
    if n == m:
        return core
    lift, _ = np.linalg.qr(rng.standard_normal((n, m)))
    return lp_mul(LaurentMatrix.constant(lift), core)


def make_valid_model(rng, n=1, m=1, lam=1, kappa=1, canonical=True):
    """Model drawn from the factored parametrization, plus its true pieces.

    Returns ``(model, b_minus, b_plus, ma_part)`` where ma_part is the
    polynomial part of B_minus^-1 A.
    """
    b_minus = random_b_minus(rng, n, lam)
    b_plus = random_b_plus(rng, n, kappa)
    ma = random_ma_part(rng, n, m, kappa)
    if canonical:
        c0 = np.linalg.solve(b_plus.coefficient(0), ma.coefficient(0))
        v = canonical_rotation(c0)
        ma = ma.right_multiplied(v)
    A = lp_mul(b_minus, ma).plus_part()
    B = lp_mul(b_minus, b_plus)
    model = Model(B, A, lam=lam, kappa=kappa)
    return model, b_minus, b_plus, ma


def make_valid_bundle(rng, **kw):
    model, *_ = make_valid_model(rng, **kw)
    return model, solve_model(model)


def match_zero_multisets(za, zb, tol=1e-6):
    """Greedy nearest-neighbour pairing of two zero multisets."""
    za, zb = list(za), list(zb)
    if len(za) != len(zb):
        return False
    zb = zb.copy()
    for z in za:
        dists = [abs(z - w) for w in zb]
        j = int(np.argmin(dists))
        if dists[j] > tol * max(1.0, abs(z)):
            return False
        zb.pop(j)
    return True


def near_band_stack(rng, lam, lead_margin, zero_kinds):
    """B (1, lam + 2, 2, 2) at lags -lam..1 with the 2 * (lam + 1) zeros of
    det(z^lam B) picked by ``zero_kinds`` and a lead B_1 whose sigma_min,
    after the companion pencil's power-of-two scaling, is ``lead_margin``
    times PENCIL_INFINITE_RTOL."""
    moduli = {"out": 1 + 10 * BOUNDARY_TOL, "in": 1 - 10 * BOUNDARY_TOL, "deep": 0.5, "far": 2.0}
    poly = [np.eye(2)]                               # ascending coefficients
    for pair in np.reshape(zero_kinds, (-1, 2)):
        s = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        x = s @ np.diag([moduli[k] * rng.choice([-1.0, 1.0]) for k in pair]) @ np.linalg.inv(s)
        factor = [-x, np.eye(2)]                     # z I - X
        poly = [sum(poly[i] @ factor[k - i] for i in range(len(poly)) if 0 <= k - i < 2)
                for k in range(len(poly) + 1)]
    q1, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    q2, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    e = 0
    for _ in range(3):          # the scaling exponent of the product settles
        lead = q1 @ np.diag([1.0, lead_margin * PENCIL_INFINITE_RTOL * 2.0 ** e]) @ q2
        Bc = np.array([lead @ c for c in poly])
        e = np.frexp(np.abs(Bc).max())[1]
    return trim_dust(Bc[None])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
