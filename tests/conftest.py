"""Shared fixtures: reference instances and the oracles that only tests read.

The oracles are the bit-level ladder action, the single anticommutator,
dense-matrix conjugation and evolution, the nested-commutator series and
the scaled Taylor evolution (the sparse routes that the verification pass
ran before its sector-block exponential), the literal operators, the
literal gamma* four-strings over adjoint copies, the literal double sum
for Phi and a literal gap loop.  `angles_from_theta` gives the raw-angle
gap tables that only the angle-reading routes take.

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
from bcslab.fock import SELFADJOINT_TOL, adjoint, ladder_matrix, op_norm_inf
from bcslab.gapsolve import GapTable
from bcslab.hamiltonian import OperatorBundle
from bcslab.model import Kernel, explicit_modes
from bcslab.states import pair_coefficients


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


def angles_from_theta(mt, theta):
    """A raw-angle gap table, for routes that read only the angles (the states and K = i G_B).

    It bypasses `GapTable.from_delta`: no gap underlies it, so its `energy`
    and `delta` are NaN, and a route that reads them gives NaN instead of a
    number.
    """
    theta = np.asarray(theta, dtype=np.float64)
    unset = np.full(theta.shape, np.nan)
    angles = GapTable(
        delta=unset,
        energy=unset,
        theta=theta,
        sin_t=np.sin(theta),
        cos_t=np.cos(theta),
        sin2t=np.sin(2.0 * theta),
        cos2t=np.cos(2.0 * theta),
    )
    angles.validate(mt)
    return angles


def ladders_of(n_modes):
    """The 2M bare ladders C_j in orbital order, as `OperatorBundle.C` holds them."""
    return [ladder_matrix(j, n_modes) for j in range(2 * n_modes)]


def vacuum_exponential(ops, angles):
    """exp(K)|0> for K = i G_B, read by the verification pass's route: the vacuum column of exp(K)'s sector blocks."""
    from bcslab.sectors import PairSectors
    from bcslab.hamiltonian import build_GB

    sectors = PairSectors(ops.mt)
    expk, leak = sectors.exponential(build_GB(ops, angles))
    assert leak == 0.0
    return sectors.column(expk, 0)


def apply_annihilate(j, bits, n_orbitals):
    """Oracle: the annihilator of spin-orbital j on basis state `bits`, bit by bit.

    Returns (sign, bits') with sign = +-1, or None when orbital j is empty.
    """
    if not 0 <= j < n_orbitals:
        raise ValueError(f"orbital index {j} out of range [0, {n_orbitals})")
    if not (bits >> j) & 1:
        return None
    below = bits & ((1 << j) - 1)
    sign = -1 if below.bit_count() & 1 else 1
    return sign, bits ^ (1 << j)


def apply_create(j, bits, n_orbitals):
    """Oracle: the creator of spin-orbital j; None when j is already filled."""
    if not 0 <= j < n_orbitals:
        raise ValueError(f"orbital index {j} out of range [0, {n_orbitals})")
    if (bits >> j) & 1:
        return None
    below = bits & ((1 << j) - 1)
    sign = -1 if below.bit_count() & 1 else 1
    return sign, bits | (1 << j)


def quartet_literal(mt, quasi, terms, psi):
    """Oracle: sum over (p, p', c) of c gamma*_{p,up} gamma*_{-p,dn} gamma*_{p',up} gamma*_{-p',dn} psi.

    Each gamma* is the copy adjoint(quasi[j]), not a view.  Terms with c = 0
    are skipped and the rest accumulate in the order given, as in
    `quartet_sum`, so on real gammas both routes agree bit for bit.
    """
    dag = [adjoint(g) for g in quasi]
    out = np.zeros_like(psi)
    for p, pp, c in terms:
        if c == 0.0:
            continue
        w = psi
        for j in (mt.orb_dn(mt.pair[pp]), mt.orb_up(pp), mt.orb_dn(mt.pair[p]), mt.orb_up(p)):
            w = dag[j] @ w
        out += c * w
    return out


def correction_state_literal(mt, kernel, angles, quasi, psi_ref):
    """Oracle: Phi as the literal ordered double sum with the 1/2 prefactor, for the pair-collapsed form."""
    coeffs = pair_coefficients(mt, kernel, angles)
    m = mt.n_modes
    terms = ((p, pp, 0.5 * coeffs[p, pp]) for p in range(m) for pp in range(m))
    return quartet_literal(mt, quasi, terms, psi_ref)


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


def anticommutator(a, b):
    """{A, B} = AB + BA, one pair at a time."""
    return a @ b + b @ a


def dense_conjugation(a, k, alpha):
    """Oracle: exp(-alpha K) A exp(alpha K) by dense matrix exponentials."""
    kd = k.toarray()
    return expm(-alpha * kd) @ a.toarray() @ expm(alpha * kd)


def dense_evolution(k, v):
    """Oracle: exp(K) v by dense matrix exponential."""
    return expm(k.toarray()) @ v


SERIES_MAX_TERMS = 200
# degree of the Taylor polynomial of exp(K/s) with ||K/s|| <= 1: the
# remainder sum_{n>18} 1/n! ~ 9e-18 lies below double precision
TAYLOR_DEGREE = 18


def conjugate_series(a, k, alpha, tol=1e-12):
    """Oracle: exp(-alpha K) A exp(alpha K) by the nested-commutator series, one sparse operator.

    Sums alpha^n / n! [..[A,K],..,K] and stops once two consecutive terms
    fall below `tol` in infinity-norm; the result then matches the exact
    conjugation within 10*tol.  K must be anti-selfadjoint (K* = -K).
    """
    from scipy.sparse import csr_array

    if tol <= 0:
        raise ValueError("tol must be positive")
    k = csr_array(k)
    if op_norm_inf(k + adjoint(k)) > SELFADJOINT_TOL:
        raise ValueError("K must be anti-selfadjoint for conjugation by exp(alpha*K)")
    if a.shape != k.shape:
        raise ValueError(f"dimension mismatch: operator {a.shape}, K {k.shape}")
    total = term = csr_array(a, copy=True)
    if alpha == 0.0:
        return total
    coeff, small = 1.0, 0
    for n in range(1, SERIES_MAX_TERMS + 1):
        term = term @ k - k @ term
        coeff *= alpha / n
        scaled = term * coeff
        total = total + scaled
        small = small + 1 if op_norm_inf(scaled) <= tol else 0
        if small == 2:
            return total
    raise ConvergenceError(f"commutator series did not reach tol={tol} within {SERIES_MAX_TERMS} terms")


def evolve_state(k, v):
    """Oracle: exp(K) v as s steps of exp(K/s), s = ceil(||K||), each a degree-18 Taylor polynomial.

    Each step's argument has norm at most 1, so each step is accurate to
    double precision at any ||K|| (the scaling of Al-Mohy and Higham, SIAM
    J. Sci. Comput. 33, 488, 2011, at a fixed degree).  K must be
    anti-selfadjoint, so the result keeps the norm of v.
    """
    if op_norm_inf(k + adjoint(k)) > SELFADJOINT_TOL:
        raise ValueError("K must be anti-selfadjoint for exp(K)")
    if k.shape[1] != v.shape[0]:
        raise ValueError(f"dimension mismatch: operator {k.shape}, state {v.shape}")
    steps = max(1, math.ceil(op_norm_inf(k)))
    out = np.asarray(v)
    for _ in range(steps):
        term = out
        for n in range(1, TAYLOR_DEGREE + 1):
            term = (1.0 / (n * steps)) * (k @ term)
            out = out + term
    return out


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


def solve_literal(mt, kernel, corrected, init=1.0, damping=0.5, tol=1e-10, max_iter=10000, accelerate=True):
    """Oracle: the gap driver written out literally, every value recomputed where used.

    Returns the fields of the `GapSolution` that `solve_gap` (corrected False)
    or `solve_new_gap` (corrected True) should return, as a dict.  With
    accelerate=False it is the plain damped loop, the reference for which
    solution branch the accelerated driver must land on.
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

    def rhs(delta):
        return -0.5 * u @ weights(delta)

    def anderson(xs):
        # Anderson(m) over iterates xs, oldest first: gamma minimizes the
        # residual of the latest iterate minus a combination of residual
        # differences (ridge 1e-10 relative to the trace), and the step moves
        # the latest damped step by the same combination of damped-step differences
        m = len(xs) - 1
        df = np.array([(rhs(xs[i + 1]) - xs[i + 1]) - (rhs(xs[i]) - xs[i]) for i in range(m)])
        dd = np.array([
            ((1.0 - damping) * xs[i + 1] + damping * rhs(xs[i + 1]))
            - ((1.0 - damping) * xs[i] + damping * rhs(xs[i]))
            for i in range(m)
        ])
        gram = df @ df.T + 1e-10 * np.trace(df @ df.T) * np.eye(m)
        try:
            gamma = np.linalg.solve(gram, df @ (rhs(xs[-1]) - xs[-1]))
        except np.linalg.LinAlgError:
            return None
        return (1.0 - damping) * xs[-1] + damping * rhs(xs[-1]) - gamma @ dd

    with np.errstate(over="ignore", invalid="ignore"):
        row_mag = np.abs(u).sum(axis=1)
        delta = np.where(row_mag > 0, float(init), 0.0)
        clamped = False
        streak = 0
        iterations = 0
        converged = False
        trivial_stop = False
        history = []  # iterates since the residual last fell to 1e-2, oldest first, at most 4
        for iterations in range(max_iter + 1):
            residual = float(np.max(np.abs(delta - rhs(delta)))) if delta.size else 0.0
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
            step = None
            if accelerate and residual <= 1e-2:
                history = (history + [delta])[-4:]
                if len(history) > 1:
                    step = anderson(history)
                    if step is None or np.any(step < 0):
                        history = []
                        step = None
            else:
                history = []
            if step is None:
                step = (1.0 - damping) * delta + damping * rhs(delta)
                if np.any(step < 0):
                    clamped = True
                    step = np.maximum(step, 0.0)
            delta = 0.5 * (step + step[mt.pair])
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
