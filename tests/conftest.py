"""Shared fixtures: reference instances, dense-matrix oracles, literal operators and a literal gap loop.

The workhorse instance ("two_mode") is the pair lattice {k, -k} with
xi = 1.6 and U(k,-k) = -4.  Its gap equation has the closed-form solution
sqrt(xi^2 + Delta^2) = 2, i.e. Delta = 1.2, which makes sin 2theta = 0.6 /
cos 2theta = 0.8 a 3-4-5 triangle and gives exact decimal expectations.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from bcslab.errors import ConvergenceError
from bcslab.fock import ladder_matrix
from bcslab.hamiltonian import OperatorBundle
from bcslab.model import Kernel, explicit_modes


@pytest.fixture
def two_mode():
    mt = explicit_modes([(1, 0, 0), (-1, 0, 0)], xi_override=[1.6, 1.6])
    kernel = Kernel(u=np.array([[0.0, -4.0], [-4.0, 0.0]]))
    return mt, kernel


@pytest.fixture
def three_mode():
    """{0, e1, -e1} with mixed-sign xi and an all-shell separable kernel."""
    from bcslab.model import separable_kernel

    mt = explicit_modes([(0, 0, 0), (1, 0, 0), (-1, 0, 0)], mu=0.5)
    kernel = separable_kernel(mt, 3.0)
    return mt, kernel


def bundle_of(mt, kernel=None):
    """The instance's OperatorBundle; U = 0 when the test needs no interaction."""
    if kernel is None:
        kernel = Kernel(u=np.zeros((mt.n_modes, mt.n_modes)))
    return OperatorBundle(mt, kernel)


def literal_operators(mt, kernel):
    """Oracle: B_k, B*_k, h_k, v_k, G, T, H and I straight from `ladder_matrix` by the paper's formulas.

    Every ladder is built afresh where a formula uses it and the creator is
    its transpose (the ladders are real), so B*_k is C*_{k,up} C*_{-k,dn}.
    Sums run in the order the formulas are written: modes in index order,
    spin up before spin down, k' outer and k inner in H.
    """
    from scipy.sparse import csr_array, eye_array

    m = mt.n_modes

    def creator(j):
        return csr_array(ladder_matrix(j, m).T)

    def number(j):
        return creator(j) @ ladder_matrix(j, m)

    pairs = [ladder_matrix(mt.orb_dn(mt.pair[i]), m) @ ladder_matrix(mt.orb_up(i), m) for i in range(m)]
    ops = {
        "B": pairs,
        "Bd": [creator(mt.orb_up(i)) @ creator(mt.orb_dn(mt.pair[i])) for i in range(m)],
        "h": [number(mt.orb_up(i)) + number(mt.orb_dn(mt.pair[i])) for i in range(m)],
        "v": [b + csr_array(b.T) for b in pairs],
    }
    g = number(0)
    for j in range(1, mt.n_orbitals):
        g = g + number(j)
    t = csr_array((mt.dim, mt.dim))
    for i in range(m):
        t = t + mt.xi[i] * number(mt.orb_up(i))
        t = t + mt.xi[i] * number(mt.orb_dn(i))
    h = t
    for kp in range(m):
        for k in range(m):
            if kernel.u[k, kp] != 0.0:
                h = h + kernel.u[k, kp] * (csr_array(pairs[kp].T) @ pairs[k])
    ops.update(G=g, T=t, H=h, I=eye_array(mt.dim))
    return ops


def dense_conjugation(a, k, alpha):
    """Oracle: exp(-alpha K) A exp(alpha K) by dense matrix exponentials."""
    kd = k.toarray()
    return expm(-alpha * kd) @ a.toarray() @ expm(alpha * kd)


def dense_evolution(k, v):
    """Oracle: exp(K) v by dense matrix exponential."""
    return expm(k.toarray()) @ v


def random_selfadjoint(dim, rng, scale=1.0):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    from scipy.sparse import csr_array

    return csr_array(scale * 0.5 * (raw + raw.conj().T))


def random_antisymmetric(dim, rng, scale=1.0):
    """Real K with K^T = -K, the real generator of an orthogonal exp(K)."""
    from scipy.sparse import csr_array

    raw = rng.standard_normal((dim, dim))
    return csr_array(scale * 0.5 * (raw - raw.T))


def random_sparse(dim, rng, density=0.2, real=False):
    from scipy.sparse import csr_array, random_array

    mat = random_array((dim, dim), density=density, rng=rng, dtype=np.float64).toarray()
    if not real:
        mat = mat + 1j * random_array((dim, dim), density=density, rng=rng, dtype=np.float64).toarray()
    return csr_array(mat)


def solve_literal(mt, kernel, corrected, init=1.0, damping=0.5, tol=1e-10, max_iter=10000):
    """Oracle: the damped gap iteration written out literally, every value recomputed where used.

    Returns the fields of the `GapSolution` that `solve_gap` (corrected False)
    or `solve_new_gap` (corrected True) should return, as a dict.
    """
    xi, u = mt.xi, kernel.u

    def ratio(delta):
        energy = np.hypot(xi, delta)
        return np.divide(delta, energy, out=np.zeros_like(delta), where=energy > 0)

    def dk_table(delta):
        with np.errstate(over="ignore", invalid="ignore"):
            energy = np.hypot(xi, delta)
            guarded = np.maximum(energy, np.finfo(np.float64).eps)
            cos2 = xi / guarded
            shape = (1.0 - np.outer(cos2, cos2)) ** 2
            denom = (guarded[:, None] + guarded[None, :]) ** 2
            dk = 0.25 * (u**2 * shape / denom).sum(axis=1)
        return dk, float(dk.sum())

    def weights(delta):
        weighted = ratio(delta)
        if corrected:
            dk, dsum = dk_table(delta)
            weighted = weighted * (1.0 - 4.0 * dk / (dsum + 2.0))
        return weighted

    with np.errstate(over="ignore", invalid="ignore"):
        row_mag = np.abs(u).sum(axis=1)
        delta = np.where(row_mag > 0, float(init), 0.0)
        clamped = False
        streak = 0
        iterations = 0
        converged = False
        trivial_stop = False
        for iterations in range(max_iter + 1):
            proposal = -0.5 * u @ weights(delta)
            residual = float(np.max(np.abs(delta - proposal))) if delta.size else 0.0
            if not math.isfinite(residual):
                raise ConvergenceError("non-finite iterate")
            if residual <= tol:
                converged = True
                break
            if np.max(np.abs(delta)) < 1e-13:
                streak += 1
                if streak >= 10:
                    trivial_stop = True
                    break
            else:
                streak = 0
            delta = (1.0 - damping) * delta + damping * proposal
            if np.any(delta < 0):
                clamped = True
                delta = np.maximum(delta, 0.0)
            delta = 0.5 * (delta + delta[mt.pair])
        residual_inf = float(np.max(np.abs(delta + 0.5 * u @ weights(delta))))
        if not math.isfinite(residual_inf):
            raise ConvergenceError("non-finite iterate")
        converged = converged or residual_inf <= tol
        energy = np.hypot(xi, delta)
        pos = energy > 0
        theta = 0.5 * np.arctan2(delta, xi)
        theta[~pos] = 0.5 * math.pi
        out = {
            "delta": delta,
            "theta": theta,
            "sin2t": ratio(delta),
            "cos2t": np.divide(xi, energy, out=-np.ones_like(xi), where=pos),
            "energy": energy,
            "iterations": iterations,
            "residual_inf": residual_inf,
            "converged": converged,
            "trivial": trivial_stop or (converged and float(np.max(np.abs(delta))) <= 100.0 * tol),
            "clamped": clamped,
            "degenerate_modes": tuple(np.flatnonzero(np.hypot(xi, delta) == 0).tolist()),
        }
        if corrected:
            dk, dsum = dk_table(delta)
            out["dk"] = dk
            out["dsum"] = dsum
            out["max_factor_dev"] = float(np.max(4.0 * dk / (dsum + 2.0))) if dk.size else 0.0
            out["nonpositive_factor"] = tuple(np.flatnonzero(1.0 - 4.0 * dk / (dsum + 2.0) <= 0).tolist())
    return out
