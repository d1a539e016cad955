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

import itertools
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
    """a* as CSR: the arrays of a.tocsc() are the CSR of the transpose, conjugated only for complex input."""
    t = a.tocsc()
    data = t.data.conj() if np.iscomplexobj(t.data) else t.data
    return csr_array((data, t.indices, t.indptr), shape=(a.shape[1], a.shape[0]))


def commutator(a, b) -> csr_array:
    return a @ b - b @ a


def op_norm_inf(a) -> float:
    """Operator infinity-norm (max absolute row sum)."""
    if a.nnz == 0:
        return 0.0
    return float(abs(a).sum(axis=1).max())


# ---------------------------------------------------------------------------
# row stacks: n square operators of dimension d as one (n*d, d) CSR array
#
# Below a few thousand rows scipy spends more per sparse result on Python
# set-up (index dtypes, format checks) than on arithmetic, so the commutator
# series and the CAR check run a stack of operators through each product:
# X @ B holds every A_i @ B, and kron(I, B) @ X every B @ A_i.  Each row of
# a product sums in the stored order of its own block, so a block reads
# exactly what the single product gives.  Two things see the whole stack and
# are redone per block: scipy adds with its sorted-merge kernel only when
# every row of both operands is sorted (`_stacked_sum`), and `op_norm_inf`
# sorts the rows it sums (`_block_norms`).
#
# A stack holds at most STACK_ROWS rows, so the dimension decides: M <= 6
# (d <= 4096) shares products, eight operators per stack at M = 5 and two
# at M = 6, and from M = 7 (d = 16384) every stack is one operator.  There
# the arithmetic outweighs the set-up, so a wider stack saves little, while
# every stacked intermediate grows with the stack: at M = 5 the tracemalloc
# peak of a verification pass is about 1.2 MiB unstacked, 1.6 MiB with
# 4096-row stacks, 1.85 MiB with 8192 rows and 2.1 MiB with 16384.
STACK_ROWS = 8192


def _index_dtype(top: int):
    """int32 for indices up to `top`, as scipy picks for its own results."""
    return np.int32 if top <= INT32_MAX else np.int64


def _stack(ops) -> csr_array:
    """vstack(ops) from their own arrays, so every row keeps its stored order; one operator is itself."""
    if len(ops) == 1:
        return ops[0]
    offsets = np.cumsum([0] + [a.nnz for a in ops])
    idx = _index_dtype(max(offsets[-1], len(ops) * ops[0].shape[0]))
    indptr = np.concatenate([[0]] + [a.indptr[1:] + off for a, off in zip(ops, offsets)], dtype=idx)
    indices = np.concatenate([a.indices for a in ops], dtype=idx)
    data = np.concatenate([a.data for a in ops])
    return csr_array((data, indices, indptr), shape=(len(ops) * ops[0].shape[0], ops[0].shape[1]))


def _unstack(x, n: int) -> list:
    """The n row blocks of the stack x, each with arrays of its own, which do not keep x; one block is x."""
    if n == 1:
        return [x]
    rows = x.shape[0] // n
    out = []
    for b in range(n):
        ptr = x.indptr[b * rows : (b + 1) * rows + 1]
        lo, hi = ptr[0], ptr[-1]
        block = (x.data[lo:hi].copy(), x.indices[lo:hi].copy(), ptr - lo)
        out.append(csr_array(block, shape=(rows, x.shape[1])))
    return out


def _block_diag(b, n: int) -> csr_array:
    """kron(I_n, B), each block's rows in the stored order of B's."""
    if n == 1:
        return b
    dim = b.shape[0]
    shift = np.arange(n, dtype=_index_dtype(n * max(dim, b.nnz)))[:, None]
    indices = (shift * dim + b.indices).ravel()
    indptr = np.concatenate(([0], (shift * b.nnz + b.indptr[1:]).ravel()), dtype=shift.dtype)
    return csr_array((np.tile(b.data, n), indices, indptr), shape=(n * dim, n * dim))


def _block_starts(x, n: int) -> np.ndarray:
    """Offsets into x.data of the n row blocks, and the end."""
    return x.indptr[:: x.shape[0] // n]


def _canonical_blocks(x, n: int) -> np.ndarray:
    """Which row blocks of x scipy reads as canonical: every row strictly increasing."""
    if x.has_canonical_format:
        return np.ones(n, dtype=bool)
    falls = x.indices[1:] <= x.indices[:-1]  # entry p + 1 does not follow entry p
    row_starts = x.indptr[1:-1]
    falls[row_starts[(row_starts > 0) & (row_starts < x.nnz)] - 1] = False
    starts = _block_starts(x, n)
    return np.array([not falls[lo : hi - 1].any() for lo, hi in zip(starts[:-1], starts[1:])])


def _stacked_sum(x, y, n: int, sign: float = 1.0) -> csr_array:
    """x + sign * y over stacks of n blocks, each block as the single sum stores it.

    scipy merges sorted rows, and so stores them sorted, only when both whole
    operands are canonical; otherwise it stores each row in reverse order of
    first appearance.  Where the stack took that general route, the blocks
    whose own operands are canonical get their rows sorted back.
    """
    out = x + y if sign > 0 else x - y
    if n > 1 and (canonical := _canonical_blocks(x, n)).any():
        canonical &= _canonical_blocks(y, n)
        if canonical.any() and not canonical.all():
            pos = np.flatnonzero(np.repeat(canonical, np.diff(_block_starts(out, n))))
            rows = np.repeat(np.arange(out.shape[0]), np.diff(out.indptr))[pos]
            order = pos[np.lexsort((out.indices[pos], rows))]
            out.indices[pos] = out.indices[order]
            out.data[pos] = out.data[order]
    return out


def _block_norms(x, n: int) -> np.ndarray:
    """op_norm_inf of each of the n row blocks of x.

    Sorts the rows of x in place first, as `op_norm_inf` does through
    scipy's abs(), and sums each row with the np.add.reduceat that scipy's
    sum(axis=1) runs, so every block reads the single call's value bit for bit.
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

    Both families are built for j' >= j only: {a_j, a_j'} is symmetric, and
    the row sums of {a_j', a*_j} are the column sums of its adjoint
    {a_j, a*_j'}; {a*_j, a*_j'} is the adjoint of {a_j', a_j} and adds nothing.
    For each j the a*_j' and the a_j' run as stacks (see STACK_ROWS).
    """
    cre = [adjoint(a) for a in ann]
    dim = ann[0].shape[0]
    ident, zero = identity_op(dim), csr_array((dim, dim))
    width = max(1, STACK_ROWS // dim)
    worst = 0.0
    for j, a in enumerate(ann):
        for lo in range(j, len(ann), width):
            hi = min(lo + width, len(ann))
            n = hi - lo
            left = _block_diag(a, n)
            x = _stack(cre[lo:hi])
            mixed = left @ x + x @ a
            if lo == j:
                # the identity of {a_j, a*_j} in the first block only
                mixed = mixed - _stack([ident] + [zero] * (n - 1))
            worst = max(worst, _block_norms(mixed, n).max(), _block_column_norms(mixed, n).max())
            # released before the same-family stack is formed: at M = 5 the two
            # together would set the tracemalloc peak of a verification pass
            del mixed, x
            y = _stack(ann[lo:hi])
            worst = max(worst, _block_norms(left @ y + y @ a, n).max())
    return float(worst)


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
    check.  A may also be a row stack of square blocks (see STACK_ROWS):
    row r then reads g at r modulo the block size, so each block is
    conjugated as the operator alone.
    """
    out = csr_array(a, dtype=np.complex128, copy=True)
    g = np.asarray(g, dtype=np.float64)
    dim = out.shape[1]
    if g.shape != (dim,) or out.shape[0] % max(dim, 1):
        raise ValueError(f"dimension mismatch: operator {out.shape}, diagonal {g.shape}")
    rows = np.repeat(np.arange(out.shape[0]), np.diff(out.indptr)) % dim
    out.data *= np.exp(-1j * alpha * (g[rows] - g[out.indices]))
    return out


def covariance_deviation(ops: list, g, alpha: float, phase: complex) -> float:
    """Max over A in `ops` of op_norm_inf(diagonal_conjugate(A, g, alpha) - phase * A).

    The operators run as stacks of up to STACK_ROWS rows, one conjugation
    and one difference per stack, and each block reads the deviation of its
    operator alone, bit for bit.
    """
    width = max(1, STACK_ROWS // ops[0].shape[0])
    worst = 0.0
    for lo in range(0, len(ops), width):
        run = ops[lo : lo + width]
        x = _stack(run)
        worst = max(worst, _block_norms(diagonal_conjugate(x, g, alpha) - phase * x, len(run)).max())
    return float(worst)


def conjugate_series(ops: list, k, alpha: float, tol: float = 1e-12) -> list:
    """exp(-alpha*K) A exp(alpha*K) for each A in `ops`, via the nested-commutator series.

    Sums the real alpha^n / n! [..[A,K],..,K] and truncates once two
    consecutive appended terms drop below `tol` in infinity-norm; the result
    then matches the exact conjugation within 10*tol.  K must be
    anti-selfadjoint (K* = -K), which is checked once per call.

    Consecutive operators of one dtype run as stacks of up to STACK_ROWS
    rows, one term T @ K - kron(I, K) @ T per step for the whole stack T.
    Each operator stops on its own terms and then takes no further term, so
    every result equals the series of that operator alone, bit for bit.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    k = csr_array(k)
    if op_norm_inf(k + adjoint(k)) > SELFADJOINT_TOL:
        raise ValueError("K must be anti-selfadjoint for conjugation by exp(alpha*K)")
    for a in ops:
        if a.shape != k.shape:
            raise ValueError(f"dimension mismatch: operator {a.shape}, K {k.shape}")
    if alpha == 0.0:
        return [csr_array(a, copy=True) for a in ops]
    width = max(1, STACK_ROWS // k.shape[0])
    out = []
    for _, run in itertools.groupby(ops, key=lambda a: a.dtype):
        run = list(run)
        for lo in range(0, len(run), width):
            out += _series_stack(run[lo : lo + width], k, alpha, tol)
    return out


def _series_stack(ops: list, k, alpha: float, tol: float) -> list:
    """The conjugation series of one stack of operators; see `conjugate_series`."""
    total = term = _stack(ops)
    live = list(range(len(ops)))  # the operator of each block still summing
    streak = np.zeros(len(ops), dtype=int)
    out = [None] * len(ops)
    kron = _block_diag(k, len(ops))  # kron(I, K), rebuilt when the stack narrows
    coeff = 1.0
    for n in range(1, CONJUGATE_MAX_TERMS + 1):
        width = len(live)
        # drop the old term before the new one is formed, and each product and
        # the scaled term once read: at M = 5 these stacks are the largest
        # arrays of a verification pass
        left, right = term @ k, kron @ term
        term = None
        term = _stacked_sum(left, right, width, sign=-1.0)
        del left, right
        coeff *= alpha / n
        scaled = term * coeff
        total = _stacked_sum(total, scaled, width)
        # two consecutive sub-tol terms guard against an accidental small term
        small = _block_norms(scaled, width) <= tol
        del scaled
        streak[live] = np.where(small, streak[live] + 1, 0)
        done = streak[live] >= 2
        if done.any():
            totals, terms = _unstack(total, width), _unstack(term, width)
            for block, i in enumerate(live):
                if done[block]:
                    out[i] = totals[block]
            if done.all():
                return out
            kept = np.flatnonzero(~done)
            live = [live[block] for block in kept]
            total = _stack([totals[block] for block in kept])
            term = _stack([terms[block] for block in kept])
            kron = _block_diag(k, len(live))
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
