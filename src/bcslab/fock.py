"""Occupation-number basis and fermionic operator algebra on C^(2^(2M)).

Basis encoding: a basis state is an unsigned integer of 2M bits, bit j
holding the occupation of spin-orbital j.  Bit 0 is the first spin-orbital
listed in the ket, so the zero-based column index of a basis vector equals
its bit pattern (vacuum = index 0, fully filled = index 2^(2M)-1).

Fermionic signs are (-1)^(number of occupied orbitals below j) and are
computed in exact integer arithmetic; floating point only enters through
amplitudes.  Operators are scipy CSR arrays and states 1-d numpy arrays,
both real (float64), and no complex operator is formed: the number-phase
rotation enters through `diagonal_commutator_norm` as entry-wise factors.
Every sparse index is int32: `ladder_matrix` (and `PairSectors`, through
the same `check_index_width`) raises ResourceLimitError above dimension
2^31 - 1, so M <= 15, and every product, sum and transpose built from the
ladders keeps that width.  There is no int64 route: at M = 16 one state
vector alone takes 32 GiB.  Every infinity norm of a sparse operator is the
row sum of `op_norm_inf`.  The CAR check reads the operators it is given
into exact XOR-diagonal forms, vectors indexed like the basis, and sums
their moduli; it forms no sparse product (see `car_deviation`).
"""

from __future__ import annotations

import functools
import operator
import os

import numpy as np
from scipy.sparse import csr_array, eye_array

from .errors import ResourceLimitError, ValidationError

DEFAULT_MODE_CAP = 7

SELFADJOINT_TOL = 1e-12
# largest dimension whose sparse indices fit int32; every M <= 15
INT32_MAX = np.iinfo(np.int32).max


def mode_cap() -> int:
    """Largest allowed pair count M; override with env var BCSLAB_DIM_CAP, a positive integer."""
    raw = os.environ.get("BCSLAB_DIM_CAP")
    if raw is None:
        return DEFAULT_MODE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValidationError(f"BCSLAB_DIM_CAP must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValidationError(f"BCSLAB_DIM_CAP must be at least 1, got {raw!r}")
    return cap


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


def check_index_width(dim: int) -> None:
    """Raise ResourceLimitError unless int32 indices reach every row of dimension `dim`."""
    if dim > INT32_MAX:
        raise ResourceLimitError(
            f"dimension {dim} is beyond the int32 sparse indices (at most {INT32_MAX}, M <= 15)"
        )


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
    check_index_width(dim)
    src = np.arange(dim, dtype=np.int32)
    occupied = (src >> j) & 1 == 1
    cols = src[occupied]
    rows = cols ^ (1 << j)
    below = np.bitwise_count(cols & ((1 << j) - 1))
    signs = np.where(below & 1, -1.0, 1.0)
    return csr_array((signs, (rows, cols)), shape=(dim, dim))


def identity_op(dim: int) -> csr_array:
    return eye_array(dim, dtype=np.float64, format="csr")


def adjoint(a: csr_array) -> csr_array:
    """a* as CSR: the arrays of a.tocsc() are the CSR of the transpose, conjugated only for complex input."""
    t = a.tocsc()
    data = t.data.conj() if np.iscomplexobj(t.data) else t.data
    return csr_array((data, t.indices, t.indptr), shape=(a.shape[1], a.shape[0]))


def commutator(a, b) -> csr_array:
    return a @ b - b @ a


def op_norm_inf(a) -> float:
    """Operator infinity-norm (max absolute row sum) of a sparse array.

    The one row-sum routine for sparse operators.  It sorts the rows of a CSR
    `a` in place first and adds each row with np.add.reduceat in column
    order, so the value does not depend on the stored order of a product.  Its
    operands are scipy products, sums and transposes, and the entry-wise
    moduli of `diagonal_commutator_norm`, which store no duplicate entries.
    """
    x = a.tocsr()
    if x.nnz == 0:
        return 0.0
    x.sort_indices()
    sums = np.zeros(x.shape[0])
    nonempty = np.flatnonzero(np.diff(x.indptr))
    sums[nonempty] = np.add.reduceat(np.abs(x.data), x.indptr[nonempty])
    return float(sums.max())


# ---------------------------------------------------------------------------
# XOR-diagonal form: the CAR check
#
# Every operator A on C^(2^n) is sum_m diag(a_m) P_m, where P_m maps basis
# index s to s ^ m and a_m[r] = A[r, r ^ m].  A product is exact in this
# form, (AB)_{m ^ k} = sum a_m * b_k[r ^ m], and r -> r ^ m is a reversed
# strided view of a vector of shape (2,)*n along the axes of m's bits, so
# no index array is built.  The row sums of A are sum_m |a_m| and its
# column sums sum_m |a_m|[r ^ m].  A pair costs O(masks(a) * masks(b) * 2^n):
# a ladder has one mask and a gamma two, so an anticommutator is a few
# element-wise products of length 2^n, where scipy spends more on the
# set-up of each sparse result than on its arithmetic.


@functools.lru_cache(maxsize=4096)  # a CAR check takes thousands of flips over a few dozen masks
def _flip_index(m: int, n: int) -> tuple:
    """The slices that reverse a (2,)*n array along the axes of the bits of m; bit b is axis n - 1 - b."""
    return tuple(slice(None, None, -1) if m >> (n - 1 - ax) & 1 else slice(None) for ax in range(n))


def _flip(v: np.ndarray, m: int) -> np.ndarray:
    """v[r ^ m] for every index r of a vector of shape (2,)*n, as a strided view."""
    return v[_flip_index(m, v.ndim)]


def _xor_form(a) -> dict:
    """{m: a_m} with a_m[r] = A[r, r ^ m], from every stored entry of the sparse A, duplicates summed.

    Each a_m has shape (2,)*n for dimension 2^n, so bit b of an index is axis n - 1 - b.
    """
    coo = a.tocoo()
    rows, data = coo.row, coo.data
    masks = rows ^ coo.col
    shape = (2,) * (a.shape[0].bit_length() - 1)
    form = {}
    for m in np.unique(masks).tolist():
        sel = masks == m
        am = np.zeros(a.shape[0], dtype=data.dtype)
        np.add.at(am, rows[sel], data[sel])
        form[m] = am.reshape(shape)
    return form


def _anticommutator(a: dict, b: dict) -> dict:
    """XOR form of AB + BA from the forms of A and B."""
    out = {}
    for m, am in a.items():
        for k, bk in b.items():
            term = am * _flip(bk, m)
            term += bk * _flip(am, k)
            if m ^ k in out:
                out[m ^ k] += term
            else:
                out[m ^ k] = term
    return out


def _max_sums(c: dict, columns: bool) -> float:
    """Largest absolute row sum of the operator of XOR form `c`, and of its column sums if `columns`.

    A vector of zeros adds nothing and is skipped: most anticommutators of a CAR check vanish.
    """
    moduli = [(m, np.abs(cm)) for m, cm in c.items() if cm.any()]
    if not moduli:
        return 0.0
    worst = sum(v for _, v in moduli).max()
    if columns:
        worst = np.maximum(worst, sum(_flip(v, m) for m, v in moduli).max())
    return float(worst)


def car_deviation(ann: list) -> float:
    """Max deviation of the canonical anticommutation relations of annihilators `ann`.

    Both families are formed for j <= j' only: {a_j, a_j'} is symmetric, and
    the row sums of {a_j', a*_j} are the column sums of its adjoint
    {a_j, a*_j'}; {a*_j, a*_j'} is the adjoint of {a_j', a_j} and adds nothing.
    Every operator is read once into its XOR form, from its stored entries,
    and a*_j' is the form conj(a_m[r ^ m]) of a_j'.  The operators must share
    one square shape whose dimension is a power of two; ValueError otherwise.
    """
    shapes = list(dict.fromkeys(a.shape for a in ann))
    dim = shapes[0][0] if shapes else 1
    if shapes and (len(shapes) > 1 or shapes[0] != (dim, dim) or dim < 1 or dim & (dim - 1)):
        raise ValueError(f"CAR operators need one square shape of dimension 2^n, got shapes {shapes}")
    forms = [_xor_form(a) for a in ann]
    ident = np.ones((2,) * (dim.bit_length() - 1))
    worst = 0.0
    for jp, b in enumerate(forms):
        cre = {m: np.conj(_flip(bm, m)) for m, bm in b.items()}
        for j in range(jp + 1):
            mixed = _anticommutator(forms[j], cre)
            if j == jp:
                mixed[0] = mixed.get(0, 0.0) - ident
            # np.max, not max: a NaN deviation must not lose to a finite one
            worst = np.max([worst, _max_sums(mixed, True), _max_sums(_anticommutator(forms[j], b), False)])
    return float(worst)


def anticommutator_check(ladders: list) -> float:
    """CAR deviation of the bare ladder operators C_j, all 2M of them in orbital order; exactly 0.0."""
    return car_deviation(ladders)


# ---------------------------------------------------------------------------
# diagonal generators: exact entry-wise factors


def diagonal_commutator_norm(a, g, f=lambda q: q) -> float:
    """op_norm_inf of the operator with entries f(g_r - g_c) A_rc, for the diagonal D = diag(g).

    `g` is the real diagonal of D.  The default f(q) = q gives ||[D, A]||;
    f(q) = exp(-i*alpha*q) - phase gives ||exp(-i*alpha*D) A exp(i*alpha*D) - phase A||
    exactly: no series is summed, nothing is truncated, and a complex factor
    meets the entries only as a vector, since the norm reads their moduli.
    Whether a matrix really is diag(g) is the caller's to check.  Sorts the
    indices of a CSR A in place, as `op_norm_inf` does, and the moduli share them.
    """
    a = a.tocsr()
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 1 or a.shape != (g.size, g.size):
        raise ValueError(f"dimension mismatch: operator {a.shape}, diagonal {g.shape}")
    a.sort_indices()
    # g_r of each stored entry is g repeated by the row lengths
    moduli = np.abs(a.data * f(g.repeat(np.diff(a.indptr)) - g[a.indices]))
    return op_norm_inf(csr_array((moduli, a.indices, a.indptr), shape=a.shape))


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
