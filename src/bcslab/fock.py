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
vector alone takes 32 GiB.  Every infinity norm is the row sum of
`_block_norms`, whose one-block case is `op_norm_inf`, and the CAR check of
the bare ladders reads the ladders it is given.
"""

from __future__ import annotations

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
    """Operator infinity-norm (max absolute row sum) of a sparse array, by `_block_norms`."""
    return float(_block_norms(a.tocsr(), 1)[0])


# ---------------------------------------------------------------------------
# row stacks: n square operators of dimension d as one (n*d, d) CSR array
#
# Below a few thousand rows scipy spends more per sparse result on Python
# set-up (index dtypes, format checks) than on arithmetic, so the CAR check,
# the one reader of the stacks, runs a stack of operators through each
# product: X @ B holds every A_i @ B, and kron(I, B) @ X every B @ A_i.
# Each row of a product sums in the stored order of its own block, so a
# block reads exactly what the single product gives, and `_block_norms`
# sums the rows of each block as `op_norm_inf`, which is its one-block
# case, sums a whole operator.
#
# A stack holds at most STACK_ROWS rows, so the dimension decides: M <= 6
# (d <= 4096) shares products, eight operators per stack at M = 5 and two
# at M = 6, and from M = 7 (d = 16384) every stack is one operator.  There
# the arithmetic outweighs the set-up, so a wider stack saves little, while
# every stacked intermediate grows with the stack.
STACK_ROWS = 8192


def _stack(ops) -> csr_array:
    """vstack(ops) from their own arrays, so every row keeps its stored order; one operator is itself."""
    if len(ops) == 1:
        return ops[0]
    offsets = np.cumsum([0] + [a.nnz for a in ops])
    indptr = np.concatenate([[0]] + [a.indptr[1:] + off for a, off in zip(ops, offsets)], dtype=np.int32)
    indices = np.concatenate([a.indices for a in ops], dtype=np.int32)
    data = np.concatenate([a.data for a in ops])
    return csr_array((data, indices, indptr), shape=(len(ops) * ops[0].shape[0], ops[0].shape[1]))


def _block_diag(b, n: int) -> csr_array:
    """kron(I_n, B), each block's rows in the stored order of B's."""
    if n == 1:
        return b
    dim = b.shape[0]
    shift = np.arange(n, dtype=np.int32)[:, None]
    indices = (shift * dim + b.indices).ravel()
    indptr = np.concatenate(([0], (shift * b.nnz + b.indptr[1:]).ravel()), dtype=np.int32)
    return csr_array((np.tile(b.data, n), indices, indptr), shape=(n * dim, n * dim))


def _block_starts(x, n: int) -> np.ndarray:
    """Offsets into x.data of the n row blocks, and the end."""
    return x.indptr[:: x.shape[0] // n]


def _block_norms(x, n: int) -> np.ndarray:
    """Max absolute row sum of each of the n row blocks of the CSR array x.

    The one row-sum routine of the package: `op_norm_inf` is its n = 1 case,
    and the CAR stacks read it per block.  It sorts the rows of x in place
    first and adds each row with np.add.reduceat in that order, so a block
    of a stack reads the value of its operator alone bit for bit.  Its
    operands are scipy products, sums and transposes, and the entry-wise
    moduli of `diagonal_commutator_norm`, which store no duplicate entries.
    """
    if x.nnz == 0:  # most anticommutators of a CAR check vanish
        return np.zeros(n)
    x.sort_indices()
    sums = np.zeros(x.shape[0])
    nonempty = np.flatnonzero(np.diff(x.indptr))
    sums[nonempty] = np.add.reduceat(np.abs(x.data), x.indptr[nonempty])
    return sums.reshape(n, -1).max(axis=1)


def _block_column_norms(x, n: int) -> np.ndarray:
    """op_norm_inf of the adjoint of each of the n row blocks of x, whose rows are sorted.

    np.bincount adds each column in row order, as the CSC matvec behind
    op_norm_inf(block.T) does.
    """
    if x.nnz == 0:
        return np.zeros(n)
    weights = np.abs(x.data)
    starts = _block_starts(x, n)
    return np.array([
        np.bincount(x.indices[lo:hi], weights=weights[lo:hi], minlength=x.shape[1]).max()
        for lo, hi in zip(starts[:-1], starts[1:])
    ])


def car_deviation(ann: list) -> float:
    """Max deviation of the canonical anticommutation relations of annihilators `ann`.

    Both families are built for j <= j' only: {a_j, a_j'} is symmetric, and
    the row sums of {a_j', a*_j} are the column sums of its adjoint
    {a_j, a*_j'}; {a*_j, a*_j'} is the adjoint of {a_j', a_j} and adds nothing.
    The outer loop runs over j' and forms one creator a*_j' at a time; the
    a_j with j <= j' run as stacks (see STACK_ROWS), X @ a*_j' + kron(I, a*_j') @ X
    and X @ a_j' + kron(I, a_j') @ X for the stack X, so each block sums
    a_j a*_j' + a*_j' a_j from its own operands in stored order, as the
    single pair does.
    """
    dim = ann[0].shape[0]
    ident, zero = identity_op(dim), csr_array((dim, dim))
    width = max(1, STACK_ROWS // dim)  # operators per stack, at least one
    worst = 0.0
    for jp, a in enumerate(ann):
        cre = adjoint(a)
        for lo in range(0, jp + 1, width):
            hi = min(lo + width, jp + 1)
            n = hi - lo
            x = _stack(ann[lo:hi])
            mixed = x @ cre + _block_diag(cre, n) @ x
            if hi == jp + 1:
                # the identity of {a_j', a*_j'} in the last block only
                mixed = mixed - _stack([zero] * (n - 1) + [ident])
            worst = max(worst, _block_norms(mixed, n).max(), _block_column_norms(mixed, n).max())
            # released before the same-family products are formed: at M = 5 the two
            # together would set the tracemalloc peak of a verification pass
            del mixed
            worst = max(worst, _block_norms(x @ a + _block_diag(a, n) @ x, n).max())
        del cre
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
