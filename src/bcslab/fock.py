"""Occupation-number basis and fermionic operator algebra on C^(2^(2M)).

Basis encoding: a basis state is an unsigned integer of 2M bits, bit j
holding the occupation of spin-orbital j.  Bit 0 is the first spin-orbital
listed in the ket, so the zero-based column index of a basis vector equals
its bit pattern (vacuum = index 0, fully filled = index 2^(2M)-1).

Fermionic signs are (-1)^(number of occupied orbitals below j) and are
computed in exact integer arithmetic; floating point only enters through
amplitudes.  Operators are `XorOp`s, sums of XOR-mask diagonals stored as
the rows and values of each mask, and states 1-d numpy arrays, both real
(float64); no complex operator is formed: the number-phase rotation enters
through `diagonal_commutator_norm` as entry-wise factors.  Every row index
is int32: `ladder_matrix` (and `PairSectors`, through the same
`check_index_width`) raises ResourceLimitError above dimension 2^31 - 1, so
M <= 15, and every product, sum and adjoint built from the ladders keeps
that width.  There is no int64 route: at M = 16 one state vector alone
takes 32 GiB.  Every infinity norm of an operator is one row sum,
`_max_row_sum`, read by `op_norm_inf` and by `diagonal_commutator_norm`.
The CAR check reads the operators it is given into dense mask vectors,
indexed like the basis, and sums their moduli (see `car_deviation`).  No
scipy module is imported.
"""

from __future__ import annotations

import operator
import os

import numpy as np

from .errors import ResourceLimitError, ValidationError

DEFAULT_MODE_CAP = 7

SELFADJOINT_TOL = 1e-12
# largest dimension whose row indices fit int32; every M <= 15
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
            f"dimension {dim} is beyond the int32 row indices (at most {INT32_MAX}, M <= 15)"
        )


# ---------------------------------------------------------------------------
# the operator type
#
# Every operator A on C^(2^n) is sum_m diag(a_m) P_m, where P_m maps basis
# index s to s ^ m and a_m[r] = A[r, r ^ m].  A ladder, B_k, B*_k and v_k
# have one mask each, h_k, G and T one (mask 0), a gamma two and H a few
# dozen at most, so an `XorOp` keeps, for each mask, the rows where a_m is
# nonzero and the values there.  Shifting by a mask is an index gather with
# rows ^ m.  Sums and products are exact in this form.  Where three or more
# terms meet in one entry, IEEE addition depends on their order, so the
# order is fixed: a matvec row or a norm row adds over ascending column, a
# product entry over ascending inner index, each from 0.0.  That keeps the
# reports byte-identical.


def _compress(*entries: np.ndarray) -> tuple:
    """`entries`, arrays of one length whose last holds the values, without the zero values; a NaN is kept."""
    keep = entries[-1] != 0
    return entries if keep.all() else tuple(e[keep] for e in entries)


def _from_dense(dense: np.ndarray) -> tuple:
    """(rows, vals) of the nonzero entries of a mask vector, rows as int32; a NaN is kept."""
    rows = np.flatnonzero(dense != 0).astype(np.int32)
    return rows, dense.take(rows)


def _accumulate(rows: np.ndarray, vals: np.ndarray, dim: int) -> np.ndarray:
    """The vector whose entry r adds the vals at r one by one, in the order given, from 0.0."""
    if not np.iscomplexobj(vals):
        return np.bincount(rows, weights=vals, minlength=dim)
    # complex addition adds the real and the imaginary parts apart
    out = np.empty(dim, dtype=vals.dtype)
    out.real = np.bincount(rows, weights=vals.real, minlength=dim)
    out.imag = np.bincount(rows, weights=vals.imag, minlength=dim)
    return out


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b entry by entry; a complex product as (ac - bd) + (ad + bc)i, each part rounded on its own.

    numpy's complex loops may fuse a multiply and an add, which rounds once
    instead of twice; formed apart, each part rounds twice wherever it runs.
    """
    if not (np.iscomplexobj(a) or np.iscomplexobj(b)):
        return a * b
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b, np.complex64))
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _sorted_entries(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n_bits: int) -> tuple:
    """The entries listed row by row, each row by ascending column."""
    order = np.argsort((rows.astype(np.int64) << n_bits) | cols, kind="stable")
    return rows.take(order), cols.take(order), vals.take(order)


def _max_row_sum(rows: np.ndarray, moduli: np.ndarray) -> float:
    """Largest row sum of the nonnegative `moduli`, listed row by row; 0.0 for none.

    Each row is added by np.add.reduceat in the order listed; rows that store nothing add 0.0.
    """
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    return float(np.max(np.add.reduceat(moduli, starts), initial=0.0)) if rows.size else 0.0


def _add_parts(parts: list, dim: int) -> tuple:
    """(rows, vals) of one mask from its parts, each (rows, vals) or, in a product, (rows, inner, vals).

    A lone part is kept as it is.  Several add entry by entry from 0.0: a
    sum's parts in the order listed, a product's over ascending inner index.
    """
    if len(parts) == 1:
        return parts[0][0], parts[0][-1]
    entries = [np.concatenate(field) for field in zip(*parts)]
    if len(entries) == 3:
        entries = _sorted_entries(*entries, dim.bit_length() - 1)
    return _from_dense(_accumulate(entries[0], entries[-1], dim))


class XorOp:
    """A square operator on C^dim, dim = 2^n, stored as its nonzero XOR-mask entries.

    `terms` maps each mask m, in ascending order, to (rows, vals): the int32
    rows r, ascending, where a_m[r] = A[r, r ^ m] is nonzero, and those
    values; a mask that stores nothing is dropped.  An `XorOp` is never
    changed after it is made: its arrays are read-only, and results may share
    them.  It offers `A @ x` and `x @ A` (= A^T x) with a vector, `A @ B`,
    `+`, `-` and a scalar multiple, `adjoint`, `diagonal`, `entries` and
    `shape`; `op_norm_inf` gives its infinity norm.
    """

    __array_ufunc__ = None  # a numpy scalar or array leaves `*` and `@` to this type

    def __init__(self, dim: int, terms: dict | None = None, dtype=np.float64):
        self.dim = dim
        self.terms = {m: t for m, t in sorted(terms.items()) if t[0].size} if terms else {}
        for rows, vals in self.terms.values():
            rows.flags.writeable = vals.flags.writeable = False
        self.dtype = np.result_type(dtype, *(v for _, v in self.terms.values()))
        self._by_row = None  # the entries in row order, kept once formed for two or more masks

    @classmethod
    def from_entries(cls, rows, cols, vals, shape) -> XorOp:
        """The operator of the entries (rows[i], cols[i], vals[i]), duplicates summed in the order given.

        `shape` must be square with dimension a power of two; ValueError otherwise.
        """
        shape = tuple(shape)
        dim = shape[0] if shape else 0
        if len(shape) != 2 or shape[1] != dim or dim < 1 or dim & (dim - 1):
            raise ValueError(f"an XOR-mask operator needs a square shape of dimension 2^n, got shape {shape}")
        check_index_width(dim)
        rows, cols, vals = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64), np.asarray(vals)
        if rows.size and not (0 <= min(rows.min(), cols.min()) and max(rows.max(), cols.max()) < dim):
            raise ValueError(f"entry index out of range for shape {shape}")
        dtype = np.result_type(vals.dtype, np.float64)
        masks = rows ^ cols
        terms = {}
        for m in np.flatnonzero(np.bincount(masks, minlength=1)).tolist():
            sel = masks == m
            terms[m] = _from_dense(_accumulate(rows[sel], vals[sel].astype(dtype), dim))
        return cls(dim, terms, dtype)

    @property
    def shape(self) -> tuple:
        return (self.dim, self.dim)

    def _dense(self, m: int) -> np.ndarray:
        """a_m as a vector of length dim, zero where no entry is stored."""
        out = np.zeros(self.dim, dtype=self.dtype)
        if m in self.terms:
            rows, vals = self.terms[m]
            out[rows] = vals
        return out

    def entries(self) -> tuple:
        """(rows, cols, vals) of every stored entry, mask by ascending mask, each mask by ascending row.

        The arrays may be the operator's own, which are read-only.
        """
        parts = [(r, r ^ np.int32(m), v) for m, (r, v) in self.terms.items()]
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return np.zeros(0, np.int32), np.zeros(0, np.int32), np.zeros(0, self.dtype)
        rows, cols, vals = zip(*parts)
        return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals, dtype=self.dtype)

    def _row_entries(self) -> tuple:
        """(rows, cols, vals) row by row, each row by ascending column."""
        if len(self.terms) < 2:
            return self.entries()
        if self._by_row is None:
            self._by_row = _sorted_entries(*self.entries(), self.dim.bit_length() - 1)
        return self._by_row

    def diagonal(self) -> np.ndarray:
        """The diagonal A[r, r] as a vector."""
        return self._dense(0)

    def adjoint(self) -> XorOp:
        """A*: a*_m[r] = conj(a_m[r ^ m])."""
        out = {}
        for m, (rows, vals) in self.terms.items():
            dense = np.zeros(self.dim, dtype=vals.dtype)
            dense[rows ^ np.int32(m)] = vals.conj()
            out[m] = _from_dense(dense)
        return XorOp(self.dim, out, self.dtype)

    def _combine(self, other, sign: float) -> XorOp:
        """self + other (sign 1) or self - other (sign -1), entry by entry; zero sums are dropped."""
        if not isinstance(other, XorOp):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.shape} and {other.shape}")
        # a + (-b) is a - b in IEEE arithmetic
        groups = {m: [part] for m, part in self.terms.items()}
        for m, (rows, vals) in other.terms.items():
            groups.setdefault(m, []).append((rows, vals if sign > 0 else -vals))
        terms = {m: _add_parts(parts, self.dim) for m, parts in groups.items()}
        return XorOp(self.dim, terms, np.result_type(self.dtype, other.dtype))

    def __add__(self, other):
        return self._combine(other, 1.0)

    def __sub__(self, other):
        return self._combine(other, -1.0)

    def __mul__(self, scalar):
        if isinstance(scalar, XorOp) or np.ndim(scalar) != 0:
            return NotImplemented
        terms = {m: _compress(rows, vals * scalar) for m, (rows, vals) in self.terms.items()}
        return XorOp(self.dim, terms, np.result_type(self.dtype, scalar))

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, XorOp):
            return self._product(other)
        if isinstance(other, np.ndarray):
            return self._apply(other, transpose=False)
        return NotImplemented

    def __rmatmul__(self, other):
        if isinstance(other, np.ndarray):
            return self._apply(other, transpose=True)
        return NotImplemented

    def _apply(self, x: np.ndarray, transpose: bool) -> np.ndarray:
        """A x, or A^T x; each output entry adds its terms over ascending column (row for A^T) from 0.0."""
        if x.shape != (self.dim,):
            raise ValueError(f"dimension mismatch: operator {self.shape}, vector {x.shape}")
        # up to two entries per row add alike in either order; in row order each
        # column's entries come by ascending row, which A^T x adds over
        rows, cols, vals = self._row_entries() if len(self.terms) > 2 else self.entries()
        if transpose:
            rows, cols = cols, rows
        return _accumulate(rows, _times(vals, x.take(cols)), self.dim)

    def _product(self, other: XorOp) -> XorOp:
        """A B, mask by mask: (AB)[r, r ^ m ^ k] gains a_m[r] b_k[r ^ m] over inner index r ^ m."""
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.shape} and {other.shape}")
        groups = {}
        for k in other.terms:
            b = other._dense(k)
            stored = b != 0
            for m, (rows, vals) in self.terms.items():
                inner = rows ^ np.int32(m)
                hit = stored.take(inner)
                if not hit.all():
                    rows, vals, inner = rows[hit], vals[hit], inner[hit]
                groups.setdefault(m ^ k, []).append(_compress(rows, inner, _times(vals, b.take(inner))))
        terms = {x: _add_parts(parts, self.dim) for x, parts in groups.items()}
        return XorOp(self.dim, terms, np.result_type(self.dtype, other.dtype))


def ladder_matrix(j: int, n_modes: int) -> XorOp:
    """Matrix of the annihilator C_j on the full 2^(2M)-dim space.

    Exactly 2^(2M-1) nonzeros, each +-1, all on the mask 2^j.  The creator is its adjoint.
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
    cols = src[(src >> j) & 1 == 1]
    below = np.bitwise_count(cols & ((1 << j) - 1))
    return XorOp.from_entries(cols ^ (1 << j), cols, np.where(below & 1, -1.0, 1.0), (dim, dim))


def identity_op(dim: int) -> XorOp:
    idx = np.arange(dim)
    return XorOp.from_entries(idx, idx, np.ones(dim), (dim, dim))


def commutator(a, b) -> XorOp:
    return a @ b - b @ a


def op_norm_inf(a: XorOp) -> float:
    """Operator infinity-norm (max absolute row sum) of an `XorOp`; each row adds over ascending column."""
    rows, _, vals = a._row_entries()
    return _max_row_sum(rows, np.abs(vals))


# ---------------------------------------------------------------------------
# the CAR check
#
# The forms here are the dense mask vectors a_m of each operator, zero where
# it stores nothing.  A product is exact in this form,
# (AB)_{m ^ k} = sum a_m * b_k[r ^ m], the row sums of A are sum_m |a_m| and
# its column sums sum_m |a_m|[r ^ m].  A pair costs
# O(masks(a) * masks(b) * 2^n): a ladder has one mask and a gamma two, so an
# anticommutator is a few element-wise products of length 2^n.


def _anticommutator(a: dict, b: dict, shift: dict, moved: dict) -> dict:
    """Dense mask form of AB + BA from the forms of A and B.

    `shift[m]` is the gather index r ^ m of every mask m of A, and `moved[m, k]`
    is a_m[r ^ k] for every mask k of B.
    """
    out = {}
    for m, am in a.items():
        for k, bk in b.items():
            term = am * bk.take(shift[m])
            term += bk * moved[m, k]
            if m ^ k in out:
                out[m ^ k] += term
            else:
                out[m ^ k] = term
    return out


def _max_sums(c: dict, idx: np.ndarray | None = None) -> float:
    """Largest absolute row sum of the operator of dense mask form `c`, and of its column sums if `idx` = arange(2^n).

    A vector of zeros adds nothing and is skipped: most anticommutators of a CAR check vanish.
    """
    moduli = [(m, np.abs(cm)) for m, cm in c.items() if cm.any()]
    if not moduli:
        return 0.0
    worst = sum(v for _, v in moduli).max()
    if idx is not None:
        worst = np.maximum(worst, sum(v.take(idx ^ m) for m, v in moduli).max())
    return float(worst)


def car_deviation(ann: list) -> float:
    """Max deviation of the canonical anticommutation relations of the `XorOp` annihilators `ann`.

    Both families are formed for j <= j' only: {a_j, a_j'} is symmetric, and
    the row sums of {a_j', a*_j} are the column sums of its adjoint
    {a_j, a*_j'}; {a*_j, a*_j'} is the adjoint of {a_j', a_j} and adds nothing.
    Every operator is read once into its dense mask form, a*_j' is the form
    conj(a_m[r ^ m]) of a_j', and both anticommutators of a pair read one
    shifted copy a_m[r ^ k] of a_j.  The operators must share one dimension;
    ValueError otherwise.
    """
    shapes = list(dict.fromkeys(a.shape for a in ann))
    if len(shapes) > 1:
        raise ValueError(f"CAR operators need one shape, got shapes {shapes}")
    idx = np.arange(shapes[0][0] if shapes else 1)
    forms = [{m: a._dense(m) for m in a.terms} for a in ann]
    ident = np.ones(idx.size)
    worst = 0.0
    for jp, b in enumerate(forms):
        b_shift = {k: idx ^ k for k in b}
        cre = {k: np.conj(bk.take(b_shift[k])) for k, bk in b.items()}
        for j in range(jp + 1):
            a_shift = {m: idx ^ m for m in forms[j]}
            moved = {(m, k): am.take(b_shift[k]) for m, am in forms[j].items() for k in b}
            mixed = _anticommutator(forms[j], cre, a_shift, moved)
            if j == jp:
                mixed[0] = mixed.get(0, 0.0) - ident
            same = _anticommutator(forms[j], b, a_shift, moved)
            # np.max, not max: a NaN deviation must not lose to a finite one
            worst = np.max([worst, _max_sums(mixed, idx), _max_sums(same)])
    return float(worst)


def anticommutator_check(ladders: list) -> float:
    """CAR deviation of the bare ladder operators C_j, all 2M of them in orbital order; exactly 0.0."""
    return car_deviation(ladders)


# ---------------------------------------------------------------------------
# diagonal generators: exact entry-wise factors


def diagonal_commutator_norm(a: XorOp, g, f=lambda q: q) -> float:
    """Infinity norm of the operator with entries f(g_r - g_c) A_rc, for the diagonal D = diag(g).

    `g` is the real diagonal of D.  The default f(q) = q gives ||[D, A]||;
    f(q) = exp(-i*alpha*q) - phase gives ||exp(-i*alpha*D) A exp(i*alpha*D) - phase A||
    exactly: no series is summed, nothing is truncated, and a complex factor
    meets the entries only as a vector, since the norm reads their moduli.
    On mask m the factor is f(g_r - g_{r ^ m}).  Whether a matrix really is
    diag(g) is the caller's to check.  A modulus of zero still takes its place
    in its row, so every row adds in the same order as in `op_norm_inf`.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 1 or a.shape != (g.size, g.size):
        raise ValueError(f"dimension mismatch: operator {a.shape}, diagonal {g.shape}")
    rows, cols, vals = a._row_entries()
    return _max_row_sum(rows, np.abs(vals * f(g.take(rows) - g.take(cols))))


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
