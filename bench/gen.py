"""Seeded input generator for the ratex benchmark.

Every valid model is built from its factored form B = B_minus * B_plus with
a known moving-average part M, so the transfer coefficients and spectral
density are known independently of the solver under test.  The generator
uses numpy only; ratex never sees the ground truth, only the model and
restriction files written next to it.

Run as a script it is also the benchmark's set-up step:

    python3 bench/gen.py --workload solve_mix --seed 1 --out DIR

imports numpy, scipy and ratex (what every CLI invocation pays), then
writes the inputs and ``expected.json`` under DIR.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import zlib

import numpy as np

# (n, m, lam, kappa) ladder shared with the ROADMAP baseline measurements
LADDER = ((1, 1, 1, 1), (2, 2, 1, 1), (3, 2, 1, 2), (4, 2, 2, 2), (6, 3, 1, 2), (8, 4, 1, 2))
IDENT_MODELS = ((4, 2, 2, 2), (6, 3, 1, 2), (8, 4, 1, 2), (3, 3, 0, 2), (4, 2, 0, 2))
SOLVE_HORIZON = 8
SPECTRUM_GRID = 64
SIMULATE_T = 200
GENERIC_SAMPLES = 64
MODELS_PER_SHAPE = 2


# -- polynomial matrices as (lags, rows, cols) arrays plus a min lag ---------


class Poly:
    """Minimal matrix polynomial: ``c[k]`` multiplies z**(lo + k)."""

    def __init__(self, c, lo=0):
        self.c = np.asarray(c, dtype=float)
        self.lo = int(lo)

    @property
    def hi(self):
        return self.lo + self.c.shape[0] - 1

    def coef(self, lag):
        if self.lo <= lag <= self.hi:
            return self.c[lag - self.lo]
        return np.zeros(self.c.shape[1:])

    def __matmul__(self, other):
        out = np.zeros((self.c.shape[0] + other.c.shape[0] - 1,
                        self.c.shape[1], other.c.shape[2]))
        for i, a in enumerate(self.c):
            for j, b in enumerate(other.c):
                out[i + j] += a @ b
        return Poly(out, self.lo + other.lo)

    def value(self, z):
        return sum(self.c[k] * z ** (self.lo + k) for k in range(self.c.shape[0]))

    def right(self, v):
        return Poly(self.c @ v, self.lo)

    def left(self, g):
        return Poly(g @ self.c, self.lo)

    def plus(self):
        """Nonnegative lags."""
        return Poly(self.c[max(-self.lo, 0):], max(self.lo, 0))


def const(mat):
    return Poly(np.asarray(mat, dtype=float)[None], 0)


def linear(c0, c1, lo=0):
    return Poly(np.stack([c0, c1]), lo)


# -- factored construction (B_minus stable in 1/z, B_plus and M invertible) ---


def spectral_scale(rng, n, radius):
    a = rng.standard_normal((n, n))
    rho = max(np.abs(np.linalg.eigvals(a)).max(), 1e-3)
    return a * (radius / rho) * rng.uniform(0.4, 1.0)


def orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def well_conditioned(rng, n):
    """Random matrix with singular values in [0.5, 1.5] (condition <= 3).

    A nearly singular draw makes the transfer coefficients, and with them
    the Kronecker-lifted rank tests, so ill-conditioned that the fixed
    relative rank cutoff can no longer see the verdict the construction
    implies.
    """
    return orthogonal(rng, n) @ np.diag(rng.uniform(0.5, 1.5, n)) @ orthogonal(rng, n)


def random_b_minus(rng, n, lam):
    out = const(np.eye(n))
    for _ in range(lam):
        out = out @ linear(-spectral_scale(rng, n, 0.8), np.eye(n), lo=-1)
    return out


def random_b_plus(rng, n, kappa):
    out = const(well_conditioned(rng, n))
    for _ in range(kappa):
        out = out @ linear(np.eye(n), -spectral_scale(rng, n, 0.75))
    return out


def random_ma(rng, n, m, kappa):
    core = const(np.eye(m))
    for _ in range(kappa):
        core = core @ linear(np.eye(m), -spectral_scale(rng, m, 0.75))
    core = const(well_conditioned(rng, m)) @ core
    if n == m:
        return core
    lift, _ = np.linalg.qr(rng.standard_normal((n, m)))
    return const(lift) @ core


def canonical_rotation(c0):
    """Orthogonal V with c0 @ V lower trapezoidal and a positive diagonal.

    QR of c0' gives c0 = R'Q', so c0 Q = R'; generic c0 has a nonsingular
    leading m x m block, which puts the pivots in rows 1..m.
    """
    q, r = np.linalg.qr(c0.T)
    return q * np.sign(np.diag(r))


def transfer_truth(b_plus, ma, horizon):
    """C_0..C_horizon of B_plus^-1 M by long division on the true factors."""
    g0_inv = np.linalg.inv(b_plus.coef(0))
    out = []
    for j in range(horizon + 1):
        acc = ma.coef(j).copy()
        for i in range(1, min(b_plus.hi, j) + 1):
            acc -= b_plus.coef(i) @ out[j - i]
        out.append(g0_inv @ acc)
    return np.array(out)


def spectrum_truth(b_plus, ma, grid):
    """f(e^{iw}) = K K^H with K = B_plus^-1 M, on w_k = 2 pi k / grid."""
    out = []
    for k in range(grid):
        z = np.exp(2j * np.pi * k / grid)
        g = np.linalg.solve(b_plus.value(z), ma.value(z))
        out.append(g @ g.conj().T)
    return np.array(out)


def valid_model(rng, n, m, lam, kappa):
    """(B, A, B_minus, B_plus, M) of a model that meets EU and the canonical form."""
    b_minus = random_b_minus(rng, n, lam)
    b_plus = random_b_plus(rng, n, kappa)
    ma = random_ma(rng, n, m, kappa)
    c0 = np.linalg.solve(b_plus.coef(0), ma.coef(0))
    ma = ma.right(canonical_rotation(c0))
    return b_minus @ b_plus, (b_minus @ ma).plus(), b_minus, b_plus, ma


def model_spec(B, A, n, m, lam, kappa):
    return {"n": n, "m": m, "lambda": lam, "kappa": kappa,
            "B": {str(lag): B.coef(lag).tolist() for lag in range(B.lo, B.hi + 1)},
            "A": {str(lag): A.coef(lag).tolist() for lag in range(A.lo, A.hi + 1)}}


# -- workloads -----------------------------------------------------------------


class Inputs:
    """Collects model/restriction files and the jobs that read them."""

    def __init__(self):
        self.files = {}
        self.jobs = []

    def file(self, name, obj):
        self.files[name] = obj
        return name

    def job(self, kind, argv, exit_code, verdict=None, **truth):
        self.jobs.append({"id": f"{len(self.jobs):03d}-{kind}", "kind": kind,
                          "argv": argv, "exit": exit_code, "verdict": verdict,
                          **truth})


def _eu_failing(rng, inputs):
    """The three EU failure modes, each with an expected exit code of 2."""
    n = 2
    q = orthogonal(rng, n)
    b_minus = random_b_minus(rng, n, 1)
    g0 = well_conditioned(rng, n)
    cases = {
        # det(I - U z) vanishes at z = 1
        "unit_circle": (b_minus @ const(g0) @ linear(np.eye(n), -q @ np.diag([1.0, 0.5]) @ q.T),
                        1, 1, "unit circle"),
        # one zero at z = 0.5 joins the n * lam zeros of B_minus inside the circle
        "stable_count": (b_minus @ const(g0) @ linear(np.eye(n), -q @ np.diag([2.0, 0.5]) @ q.T),
                         1, 1, "inside the unit circle"),
        # B = z B_plus with lam = 0: n zeros at the origin, none allowed
        "origin_zero": (Poly(random_b_plus(rng, n, 1).c, 1), 0, 2, "inside the unit circle"),
    }
    for name, (B, lam, kappa, reason) in cases.items():
        A = const(well_conditioned(rng, n))
        path = inputs.file(f"eu_{name}.json", model_spec(B, A, n, n, lam, kappa))
        inputs.job("factorize", ["factorize", path, "--format", "json-report"], 2,
                   "eu_failed", reason=reason, case=name)
        inputs.job("solve", ["solve", path, "--format", "json-report"], 2,
                   "solve_failed", reason=reason, case=name)


def factorize_job(inputs, path, b_minus, n, lam):
    """B_minus is unique under its normalization, so it is compared as is."""
    inputs.job("factorize", ["factorize", path, "--format", "json-report"], 0,
               "factorized", stable=n * lam,
               b_minus={str(lag): b_minus.coef(lag).tolist() for lag in range(-lam, 1)})


def solve_mix(rng, inputs):
    shapes = []
    for n, m, lam, kappa in LADDER:
        shapes.append((n, m, lam, kappa))
        if m < n:
            shapes.append((n, n, lam, kappa))
    # two models per shape, so that the mix's percentiles do not hang on
    # one draw per shape
    for k, (n, m, lam, kappa) in enumerate(shapes * MODELS_PER_SHAPE):
        B, A, b_minus, b_plus, ma = valid_model(rng, n, m, lam, kappa)
        path = inputs.file(f"m{k}.json", model_spec(B, A, n, m, lam, kappa))
        factorize_job(inputs, path, b_minus, n, lam)
        inputs.job("solve", ["solve", path, "--format", "json-report"], 0, "solved",
                   transfer=transfer_truth(b_plus, ma, SOLVE_HORIZON).tolist())
        spec = spectrum_truth(b_plus, ma, SPECTRUM_GRID)
        inputs.job("spectrum", ["spectrum", path, "--grid", str(SPECTRUM_GRID),
                                "--out", f"out/spectrum{k}.csv"], 0,
                   out=f"out/spectrum{k}.csv", re=spec.real.tolist(), im=spec.imag.tolist())
        inputs.job("simulate", ["simulate", path, "--T", str(SIMULATE_T),
                                "--seed", str(int(rng.integers(1 << 30))),
                                "--out", f"out/simulate{k}.csv"], 0,
                   out=f"out/simulate{k}.csv", n=n, T=SIMULATE_T)
        # left-multiplying (B, A) by a constant invertible G keeps the
        # transfer function; perturbing A changes it
        if (k + k // len(shapes)) % 2 == 0:
            G = well_conditioned(rng, n)
            peer, verdict, code = (B.left(G), A.left(G)), "equivalent", 0
        else:
            shift = np.zeros_like(A.c)
            shift[0] = 0.5 * rng.standard_normal((n, m))
            peer, verdict, code = (B, Poly(A.c + shift, A.lo)), "not_equivalent", 3
        other = model_spec(*peer, n, m, lam, kappa)
        path_b = inputs.file(f"m{k}_peer.json", other)
        inputs.job("equiv", ["equiv", path, path_b, "--format", "json-report"], code, verdict)
    _eu_failing(rng, inputs)


def _pin(block, lag, row, col, value):
    return {"block": block, "lag": lag, "row": row, "col": col, "value": value}


def _b_pins(B, n, lam, kappa, rows=None):
    rows = range(1, n + 1) if rows is None else rows
    return [_pin("B", lag, r, c, float(B.coef(lag)[r - 1, c - 1]))
            for lag in range(-lam, kappa + 1) for c in range(1, n + 1) for r in rows]


def ident_mix(rng, inputs):
    """Verdicts known by construction.

    Pinning every B coefficient (of the system, or of one equation) fixes
    B, and with the transfer function fixed also A: identified.  The
    equivalence class has dimension at least n^2 (1 + lam), n (1 + lam) for
    one equation, so fewer pins than that leave a direction free.
    """
    for k, (n, m, lam, kappa) in enumerate(IDENT_MODELS * MODELS_PER_SHAPE):
        B, A, b_minus, _, _ = valid_model(rng, n, m, lam, kappa)
        path = inputs.file(f"m{k}.json", model_spec(B, A, n, m, lam, kappa))
        factorize_job(inputs, path, b_minus, n, lam)
        ds = ["--ds"] if lam == 0 else []
        full = _b_pins(B, n, lam, kappa)
        few = full[: n * n * (1 + lam) - 1]
        for tag, pins, code, verdict in (("all", full, 0, "identified"),
                                         ("few", few, 3, "not_identified")):
            r = inputs.file(f"m{k}_sys_{tag}.json", {"pins": pins})
            inputs.job("ident", ["ident", path, r, "--format", "json-report"] + ds,
                       code, verdict, pins=len(pins), ds=bool(ds))
        eq = int(rng.integers(1, n + 1))
        row = _b_pins(B, n, lam, kappa, rows=[eq])
        for tag, pins, code, verdict in (("all", row, 0, "identified"),
                                         ("few", row[: n * (1 + lam) - 1], 3,
                                          "not_identified")):
            r = inputs.file(f"m{k}_eq_{tag}.json", {"equation": eq, "pins": pins})
            inputs.job("ident", ["ident", path, r, "--format", "json-report"],
                       code, verdict, pins=len(pins), ds=False)
        # local: every B coefficient pinned through smooth nonlinear maps.
        # Its json-report "verdict" is the rank verdict (the rank payload
        # overwrites the local verdict key), so that is what is expected;
        # exit code and rank_locally_constant carry the local outcome.  The
        # rank-deficient variant runs only on the small lam = 0 model, where
        # its eight regularity probes stay cheap.
        exprs = [f"B[{p['lag']}][{p['row']}][{p['col']}]^2 - {p['value'] ** 2!r}"
                 if abs(p["value"]) > 0.1 else
                 f"B[{p['lag']}][{p['row']}][{p['col']}] - {p['value']!r}" for p in full]
        r = inputs.file(f"m{k}_local_all.json", {"nonlinear": exprs})
        inputs.job("local", ["local", path, r, "--format", "json-report"], 0,
                   "identified", locally_constant=None)
        if (n, lam) == (3, 0):
            r = inputs.file(f"m{k}_local_few.json",
                            {"nonlinear": exprs[: n * n * (1 + lam) - 1]})
            inputs.job("local", ["local", path, r, "--format", "json-report"], 3,
                       "not_identified", locally_constant=True)


EMPLOYMENT = {
    "params": ["theta1", "theta2", "theta3"],
    "domain": [[0.05, 0.95], [-3.0, -0.5], [-3.0, -0.5]],
    "B": {"-1": "theta1", "0": "-((theta3/theta2)+1+theta1)", "1": "1"},
    "A": {"0": "1/theta2"},
}

# Bivariate VARMA(1,1) with B_0 = I.  |B_1 entries| <= 0.4 keeps the
# eigenvalues of B_1 inside the unit circle (EU); lower-triangular A_0 with
# a positive diagonal makes C_0 = A_0 canonical, and small A_1 keeps the
# moving-average part invertible.  The class {(X B, X A)} has dimension 4.
VARMA = {
    "params": [f"t{i}" for i in range(1, 12)],
    "domain": [[-0.4, 0.4]] * 4 + [[0.5, 1.5], [-0.5, 0.5], [0.5, 1.5]] + [[-0.1, 0.1]] * 4,
    "B": {"0": [[1, 0], [0, 1]], "1": [["t1", "t2"], ["t3", "t4"]]},
    "A": {"0": [["t5", 0], ["t6", "t7"]], "1": [["t8", "t9"], ["t10", "t11"]]},
}


def employment_solve(rng, inputs, path):
    """``solve --theta`` at a seeded point, against the closed form.

    z B(z) = z^2 - (t3/t2 + 1 + t1) z + t1 = (z - r1)(z - r2) with
    |r1| < 1 < |r2| gives C_j = -1 / (t2 r2^(j+1)).
    """
    lo, hi = np.array(EMPLOYMENT["domain"]).T
    while True:
        t1, t2, t3 = lo + (hi - lo) * rng.random(3)
        r1, r2 = sorted(np.roots([1.0, -(t3 / t2 + 1 + t1), t1]).real, key=abs)
        if abs(r1) < 0.95 and abs(r2) > 1.05:
            break
    truth = [[[-1.0 / (t2 * r2 ** (j + 1))]] for j in range(SOLVE_HORIZON + 1)]
    inputs.job("solve", ["solve", path, "--theta", ",".join(repr(float(t)) for t in (t1, t2, t3)),
                         "--format", "json-report"], 0, "solved", transfer=truth)


def generic_scan(rng, inputs):
    emp = inputs.file("employment.json", {"n": 1, "m": 1, "lambda": 1, "kappa": 1,
                                          "parametrized": EMPLOYMENT})
    emp_pins = inputs.file("employment_pins.json",
                           {"pins": [_pin("B", 1, 1, 1, 1.0), _pin("A", 1, 1, 1, 0.0)]})
    varma = inputs.file("varma.json", {"n": 2, "m": 2, "lambda": 0, "kappa": 1,
                                       "parametrized": VARMA})
    b0 = [_pin("B", 0, 1, 1, 1.0), _pin("B", 0, 2, 2, 1.0), _pin("B", 0, 1, 2, 0.0),
          _pin("B", 0, 2, 1, 0.0), _pin("A", 0, 1, 2, 0.0)]
    three = inputs.file("varma_pins3.json", {"pins": b0[:3]})
    five = inputs.file("varma_pins5.json", {"pins": b0})

    def generic(model, pins, verdict, code, drawn):
        seed = str(int(rng.integers(1 << 30)))
        inputs.job("generic", ["generic", model, pins, "--samples", str(GENERIC_SAMPLES),
                               "--seed", seed, "--format", "json-report"],
                   code, verdict, drawn=drawn)

    for _ in range(4):
        employment_solve(rng, inputs, emp)
        generic(emp, emp_pins, "evidence_not_identified", 3, GENERIC_SAMPLES)
        generic(varma, three, "evidence_not_identified", 3, GENERIC_SAMPLES)
        for _ in range(4):
            generic(varma, five, "generically_identified", 0, 1)


def _workload_rng(workload, seed):
    return np.random.default_rng([int(seed), zlib.crc32(workload.encode())])


WORKLOADS = {"solve_mix": solve_mix, "ident_mix": ident_mix, "generic_scan": generic_scan}


def build(workload: str, seed: int) -> Inputs:
    """All inputs of one workload, deterministic in (workload, seed)."""
    inputs = Inputs()
    WORKLOADS[workload](_workload_rng(workload, seed), inputs)
    return inputs


def write(inputs: Inputs, out_dir: str):
    os.makedirs(os.path.join(out_dir, "out"), exist_ok=True)
    for name, obj in inputs.files.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    with open(os.path.join(out_dir, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(inputs.jobs, fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    import scipy.linalg  # noqa: F401  (part of the measured set-up)
    import ratex  # noqa: F401
    write(build(args.workload, args.seed), args.out)


if __name__ == "__main__":
    main()
