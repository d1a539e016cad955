"""Occupation-number basis and fermionic operator algebra on C^(2^(2M)).

Basis encoding: a basis state is an unsigned integer of 2M bits, bit j
holding the occupation of spin-orbital j.  Bit 0 is the first spin-orbital
listed in the ket, so the zero-based column index of a basis vector equals
its bit pattern (vacuum = index 0, fully filled = index 2^(2M)-1).

Fermionic signs are (-1)^(number of occupied orbitals below j) and are
computed in exact integer arithmetic; floating point only enters through
amplitudes.  Operators are scipy CSR arrays, states are 1-d complex
numpy arrays.
"""

from __future__ import annotations

import math
import os

import numpy as np
from scipy.sparse import csr_array, eye_array

from .errors import ConvergenceError, ResourceLimitError, ValidationError

DEFAULT_MODE_CAP = 7

SELFADJOINT_TOL = 1e-12


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
# bit-level ladder action


def apply_annihilate(j: int, bits: int, n_orbitals: int):
    """Act with the annihilator of spin-orbital j on basis state `bits`.

    Returns (sign, bits') with sign = +-1, or None when orbital j is empty.
    """
    if not 0 <= j < n_orbitals:
        raise ValueError(f"orbital index {j} out of range [0, {n_orbitals})")
    if not (bits >> j) & 1:
        return None
    below = bits & ((1 << j) - 1)
    sign = -1 if below.bit_count() & 1 else 1
    return sign, bits ^ (1 << j)


def apply_create(j: int, bits: int, n_orbitals: int):
    """Act with the creator of spin-orbital j; None when j is already filled."""
    if not 0 <= j < n_orbitals:
        raise ValueError(f"orbital index {j} out of range [0, {n_orbitals})")
    if (bits >> j) & 1:
        return None
    below = bits & ((1 << j) - 1)
    sign = -1 if below.bit_count() & 1 else 1
    return sign, bits | (1 << j)


# ---------------------------------------------------------------------------
# matrix realizations


def ladder_matrix(j: int, n_modes: int) -> csr_array:
    """Matrix of the annihilator C_j on the full 2^(2M)-dim space.

    Exactly 2^(2M-1) nonzeros, each +-1.  The creator is its adjoint.
    """
    check_mode_count(n_modes)
    n_orb = 2 * n_modes
    if not 0 <= j < n_orb:
        raise ValueError(f"orbital index {j} out of range [0, {n_orb})")
    dim = space_dim(n_modes)
    src = np.arange(dim, dtype=np.int64)
    occupied = (src >> j) & 1 == 1
    cols = src[occupied]
    rows = cols ^ (1 << j)
    below = np.bitwise_count(cols & ((1 << j) - 1))
    signs = np.where(below & 1, -1.0, 1.0).astype(np.complex128)
    return csr_array((signs, (rows, cols)), shape=(dim, dim))


def identity_op(dim: int) -> csr_array:
    return eye_array(dim, dtype=np.complex128, format="csr")


def adjoint(a: csr_array) -> csr_array:
    return csr_array(a.conj().T)


def commutator(a, b) -> csr_array:
    return a @ b - b @ a


def anticommutator(a, b) -> csr_array:
    return a @ b + b @ a


def op_norm_inf(a) -> float:
    """Operator infinity-norm (max absolute row sum)."""
    if a.nnz == 0:
        return 0.0
    return float(abs(a).sum(axis=1).max())


def is_selfadjoint(a) -> bool:
    return op_norm_inf(a - adjoint(a)) <= SELFADJOINT_TOL


def car_deviation(ann: list) -> float:
    """Max deviation of the canonical anticommutation relations of annihilators `ann`.

    Checks {a_j, a*_j'} - delta_jj' I and {a_j, a_j'} for all pairs; the
    {a*_j, a*_j'} family is the adjoint of the second and adds nothing.
    """
    cre = [adjoint(a) for a in ann]
    ident = identity_op(ann[0].shape[0])
    worst = 0.0
    for j, a in enumerate(ann):
        for jp in range(len(ann)):
            mixed = anticommutator(a, cre[jp])
            if j == jp:
                mixed = mixed - ident
            worst = max(worst, op_norm_inf(mixed), op_norm_inf(anticommutator(a, ann[jp])))
    return worst


def anticommutator_check(n_modes: int) -> float:
    """CAR deviation of the bare ladder operators at pair count M; exactly 0.0."""
    return car_deviation([ladder_matrix(j, n_modes) for j in range(2 * n_modes)])


# ---------------------------------------------------------------------------
# exponential conjugation (nested-commutator series) and state evolution
# (scaled Taylor polynomial)

CONJUGATE_MAX_TERMS = 200
# degree of the Taylor polynomial of exp(iB/s) with ||B/s|| <= 1: the
# remainder sum_{n>18} 1/n! ~ 9e-18 lies below double precision
EVOLVE_DEGREE = 18


def conjugate_series(a, b, alpha: float, tol: float = 1e-12) -> csr_array:
    """exp(-i*alpha*B) A exp(i*alpha*B) via the nested-commutator series.

    Sums (i*alpha)^n / n! [..[A,B],..,B] and truncates once the appended
    term drops below `tol` in infinity-norm; the result then matches the
    exact conjugation within 10*tol.  B must be selfadjoint.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not is_selfadjoint(b):
        raise ValueError("B must be selfadjoint for conjugation by exp(i*alpha*B)")
    total = csr_array(a, dtype=np.complex128, copy=True)
    if alpha == 0.0:
        return total
    term = total
    coeff = 1.0 + 0.0j
    small_streak = 0
    for n in range(1, CONJUGATE_MAX_TERMS + 1):
        term = commutator(term, b)
        coeff *= 1j * alpha / n
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


def evolve_state(b, v: np.ndarray) -> np.ndarray:
    """Apply exp(i*B) to the vector v as s steps of exp(i*B/s), s = ceil(||B||).

    Each step applies the degree-EVOLVE_DEGREE Taylor polynomial of an
    argument of norm at most 1, so each step is accurate to double
    precision at any ||B|| (the scaling of Al-Mohy and Higham, SIAM J. Sci.
    Comput. 33, 488, 2011, at a fixed degree).  scipy's `expm_multiply`
    adapts the degree, but importing it loads scipy.linalg, about 0.2 s and
    10 MB per process.  B must be selfadjoint, so its infinity-norm equals
    its 1-norm and the result keeps the norm of v.
    """
    if not is_selfadjoint(b):
        raise ValueError("B must be selfadjoint for exp(i*B)")
    if b.shape[1] != v.shape[0]:
        raise ValueError(f"dimension mismatch: operator {b.shape}, state {v.shape}")
    steps = max(1, math.ceil(op_norm_inf(b)))
    out = np.array(v, dtype=np.complex128)
    for _ in range(steps):
        term = out
        for n in range(1, EVOLVE_DEGREE + 1):
            term = (1j / (n * steps)) * (b @ term)
            out = out + term
    return out


# ---------------------------------------------------------------------------
# states and expectation values


def basis_state(bits: int, n_modes: int) -> np.ndarray:
    dim = space_dim(n_modes)
    if not 0 <= bits < dim:
        raise ValueError(f"basis index {bits} out of range [0, {dim})")
    v = np.zeros(dim, dtype=np.complex128)
    v[bits] = 1.0
    return v


def vacuum_state(n_modes: int) -> np.ndarray:
    """The vacuum ket (all occupations zero)."""
    return basis_state(0, n_modes)


def expectation(phi: np.ndarray, a, psi: np.ndarray) -> complex:
    """Inner product (phi, A psi), antilinear in the first argument."""
    if a.shape[1] != psi.shape[0] or a.shape[0] != phi.shape[0]:
        raise ValueError(
            f"dimension mismatch: operator {a.shape}, bra {phi.shape}, ket {psi.shape}"
        )
    return complex(np.vdot(phi, a @ psi))
