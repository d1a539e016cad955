"""Occupation-number basis and fermionic operator algebra on C^(2^(2M)).

Basis encoding: a basis state is an unsigned integer of 2M bits, bit j
holding the occupation of spin-orbital j.  Bit 0 is the first spin-orbital
listed in the ket, so the zero-based column index of a basis vector equals
its bit pattern (vacuum = index 0, fully filled = index 2^(2M)-1).

Fermionic signs are (-1)^(number of occupied orbitals below j) and are
computed in exact integer arithmetic; floating point only enters through
amplitudes.  Operators are scipy CSR arrays and states 1-d numpy arrays,
both real (float64); only `diagonal_conjugate`, a phase rotation, is complex.
The ladders carry int32 `indices`/`indptr` up to dimension 2^31 - 1
(M <= 15), and every product, sum and transpose built from them keeps that
width, which halves the index memory of each operator against int64.
"""

from __future__ import annotations

import math
import operator
import os

import numpy as np
from scipy.sparse import csr_array, eye_array

from .errors import ConvergenceError, ResourceLimitError, ValidationError

DEFAULT_MODE_CAP = 7

SELFADJOINT_TOL = 1e-12
# largest dimension whose sparse indices fit int32; every M <= 15
INT32_MAX = np.iinfo(np.int32).max


def mode_cap() -> int:
    """Largest allowed pair count M; override with env var BCSLAB_DIM_CAP."""
    raw = os.environ.get("BCSLAB_DIM_CAP")
    if raw is None:
        return DEFAULT_MODE_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"BCSLAB_DIM_CAP must be an integer, got {raw!r}") from None


def check_mode_count(n_modes: int) -> None:
    cap = mode_cap()
    if n_modes > cap:
        raise ResourceLimitError(
            f"M={n_modes} gives dimension 2^{2 * n_modes}, beyond the cap M<={cap} "
            f"(set BCSLAB_DIM_CAP to override)"
        )


def space_dim(n_modes: int) -> int:
    """Dimension 2^(2M) of the Fock space for M mode pairs."""
    return 1 << (2 * n_modes)


# ---------------------------------------------------------------------------
# matrix realizations


def ladder_matrix(j: int, n_modes: int) -> csr_array:
    """Matrix of the annihilator C_j on the full 2^(2M)-dim space.

    Exactly 2^(2M-1) nonzeros, each +-1.  The creator is its adjoint.
    """
    check_mode_count(n_modes)
    # a Python int, so a numpy integer cannot widen the shifts below to int64
    # and a float is rejected instead of truncated
    j = operator.index(j)
    n_orb = 2 * n_modes
    if not 0 <= j < n_orb:
        raise ValueError(f"orbital index {j} out of range [0, {n_orb})")
    dim = space_dim(n_modes)
    src = np.arange(dim, dtype=np.int32 if dim <= INT32_MAX else np.int64)
    occupied = (src >> j) & 1 == 1
    cols = src[occupied]
    rows = cols ^ (1 << j)
    below = np.bitwise_count(cols & ((1 << j) - 1))
    signs = np.where(below & 1, -1.0, 1.0)
    return csr_array((signs, (rows, cols)), shape=(dim, dim))


def identity_op(dim: int) -> csr_array:
    return eye_array(dim, dtype=np.float64, format="csr")


def adjoint(a: csr_array) -> csr_array:
    """a* as CSR: the transpose, conjugated only for complex input, since conj() copies real data too."""
    return csr_array(a.conj().T if np.iscomplexobj(a) else a.T)


def commutator(a, b) -> csr_array:
    return a @ b - b @ a


def anticommutator(a, b) -> csr_array:
    return a @ b + b @ a


def op_norm_inf(a) -> float:
    """Operator infinity-norm (max absolute row sum)."""
    if a.nnz == 0:
        return 0.0
    return float(abs(a).sum(axis=1).max())


def car_deviation(ann: list) -> float:
    """Max deviation of the canonical anticommutation relations of annihilators `ann`.

    Both families are built for j' >= j only: {a_j, a_j'} is symmetric, and
    the row sums of {a_j', a*_j} are the column sums of its adjoint
    {a_j, a*_j'}; {a*_j, a*_j'} is the adjoint of {a_j', a_j} and adds nothing.
    """
    cre = [adjoint(a) for a in ann]
    ident = identity_op(ann[0].shape[0])
    worst = 0.0
    for j, a in enumerate(ann):
        for jp in range(j, len(ann)):
            mixed = anticommutator(a, cre[jp])
            if j == jp:
                mixed = mixed - ident
            worst = max(worst, op_norm_inf(mixed), op_norm_inf(mixed.T))
            worst = max(worst, op_norm_inf(anticommutator(a, ann[jp])))
    return worst


def anticommutator_check(n_modes: int) -> float:
    """CAR deviation of the bare ladder operators at pair count M; exactly 0.0."""
    return car_deviation([ladder_matrix(j, n_modes) for j in range(2 * n_modes)])


# ---------------------------------------------------------------------------
# exponential conjugation (exact entry-wise phases for a diagonal generator,
# the nested-commutator series otherwise) and state evolution (scaled
# Taylor polynomial)

CONJUGATE_MAX_TERMS = 200
# degree of the Taylor polynomial of exp(K/s) with ||K/s|| <= 1: the
# remainder sum_{n>18} 1/n! ~ 9e-18 lies below double precision
EVOLVE_DEGREE = 18


def diagonal_conjugate(a, g, alpha: float) -> csr_array:
    """exp(-i*alpha*G) A exp(i*alpha*G) for the diagonal G = diag(g), exactly.

    `g` is the real diagonal of G.  Entry (r, c) of A picks up the phase
    exp(-i*alpha*(g_r - g_c)); no series is summed and nothing is
    truncated.  Whether the matrix G really is diag(g) is the caller's to
    check.
    """
    out = csr_array(a, dtype=np.complex128, copy=True)
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (out.shape[0],) or out.shape[0] != out.shape[1]:
        raise ValueError(f"dimension mismatch: operator {out.shape}, diagonal {g.shape}")
    rows = np.repeat(np.arange(out.shape[0]), np.diff(out.indptr))
    out.data *= np.exp(-1j * alpha * (g[rows] - g[out.indices]))
    return out


def conjugate_series(a, k, alpha: float, tol: float = 1e-12) -> csr_array:
    """exp(-alpha*K) A exp(alpha*K) via the nested-commutator series.

    Sums the real alpha^n / n! [..[A,K],..,K] and truncates once the appended
    term drops below `tol` in infinity-norm; the result then matches the
    exact conjugation within 10*tol.  K must be anti-selfadjoint (K* = -K).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if op_norm_inf(k + adjoint(k)) > SELFADJOINT_TOL:
        raise ValueError("K must be anti-selfadjoint for conjugation by exp(alpha*K)")
    total = csr_array(a, copy=True)
    if alpha == 0.0:
        return total
    term = total
    coeff = 1.0
    small_streak = 0
    for n in range(1, CONJUGATE_MAX_TERMS + 1):
        term = commutator(term, k)
        coeff *= alpha / n
        scaled = csr_array(term * coeff)
        total = total + scaled
        # two consecutive sub-tol terms guard against an accidental small term
        if op_norm_inf(scaled) <= tol:
            small_streak += 1
            if small_streak >= 2:
                return csr_array(total)
        else:
            small_streak = 0
    raise ConvergenceError(
        f"commutator series did not reach tol={tol} within {CONJUGATE_MAX_TERMS} terms"
    )


def evolve_state(k, v: np.ndarray) -> np.ndarray:
    """Apply exp(K) to the vector v as s steps of exp(K/s), s = ceil(||K||).

    Each step applies the degree-EVOLVE_DEGREE Taylor polynomial of an
    argument of norm at most 1, so each step is accurate to double
    precision at any ||K|| (the scaling of Al-Mohy and Higham, SIAM J. Sci.
    Comput. 33, 488, 2011, at a fixed degree).  scipy's `expm_multiply`
    adapts the degree, but importing it loads scipy.linalg, about 0.2 s and
    10 MB per process.  K must be anti-selfadjoint, so its infinity-norm
    equals its 1-norm and the result keeps the norm of v.
    """
    if op_norm_inf(k + adjoint(k)) > SELFADJOINT_TOL:
        raise ValueError("K must be anti-selfadjoint for exp(K)")
    if k.shape[1] != v.shape[0]:
        raise ValueError(f"dimension mismatch: operator {k.shape}, state {v.shape}")
    steps = max(1, math.ceil(op_norm_inf(k)))
    out = np.asarray(v)
    for _ in range(steps):
        term = out
        for n in range(1, EVOLVE_DEGREE + 1):
            term = (1.0 / (n * steps)) * (k @ term)
            out = out + term
    return out


# ---------------------------------------------------------------------------
# states and expectation values


def basis_state(bits: int, n_modes: int) -> np.ndarray:
    dim = space_dim(n_modes)
    if not 0 <= bits < dim:
        raise ValueError(f"basis index {bits} out of range [0, {dim})")
    v = np.zeros(dim)
    v[bits] = 1.0
    return v


def vacuum_state(n_modes: int) -> np.ndarray:
    """The vacuum ket (all occupations zero)."""
    return basis_state(0, n_modes)


def expectation(phi: np.ndarray, a, psi: np.ndarray) -> float | complex:
    """Inner product (phi, A psi), antilinear in the first argument; real for real arguments."""
    if a.shape[1] != psi.shape[0] or a.shape[0] != phi.shape[0]:
        raise ValueError(
            f"dimension mismatch: operator {a.shape}, bra {phi.shape}, ket {psi.shape}"
        )
    return np.vdot(phi, a @ psi)
