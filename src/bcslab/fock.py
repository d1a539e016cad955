"""Occupation-number basis and fermionic operator algebra on C^(2^(2M)), all of it real.

Basis encoding: a basis state is an unsigned integer of 2M bits, bit j
holding the occupation of spin-orbital j.  Bit 0 is the first spin-orbital
listed in the ket, so the zero-based column index of a basis vector equals
its bit pattern (vacuum = index 0, fully filled = index 2^(2M)-1).

Fermionic signs are (-1)^(number of occupied orbitals below j) and are
computed in exact integer arithmetic; floating point only enters through
amplitudes.  Operators are `XorOp`s, sums of XOR-mask diagonals stored as
the rows and values of each mask, and states 1-d numpy arrays, both real
(float64).  An `XorOp` holds float64 entries and nothing else: complex
entries, a complex scalar multiple or a complex vector raise TypeError
instead of being cast.  The number-phase rotation enters through
`diagonal_commutator_norm` as entry-wise factors, any number of them per
read of the operator.  Every row index is int32: `ladder_matrix` (and
`PairSectors`, through the same `check_index_width`) raises
ResourceLimitError above dimension 2^31 - 1, so M <= 15, and every product,
sum and adjoint built from the ladders keeps that width.  There is no int64
route: at M = 16 one state vector alone takes 32 GiB.  Every infinity norm
of an operator is one row sum, `_max_row_sum`, read by `op_norm_inf` and by
`diagonal_commutator_norm`.  It reads an operator through
`XorOp._row_blocks`, the one row-order reader, in aligned blocks of
min(dim, ROW_BLOCK) rows, each sorted on its own where two or more masks
feed it.  So does A @ x of more than two masks, and x @ A of more than two
reads the rows of A's adjoint: no row-ordered copy of a whole operator is
formed.  The CAR check reads the operators it is given
into dense mask vectors, above ROW_BLOCK rows one pair at a time, and sums
their moduli (see `car_deviation`).  It holds each vector in a row layout
of CAR_ROW_WIDTH columns, in which the shift r -> r ^ m moves whole rows and
permutes within each row, through index arrays of 2^n / 16 + 16 entries per
mask instead of one of 2^n.  No scipy module is imported.
"""

from __future__ import annotations

import functools
import operator
import os

import numpy as np

from .errors import ResourceLimitError, ValidationError

DEFAULT_MODE_CAP = 7

SELFADJOINT_TOL = 1e-12
# largest dimension whose row indices fit int32; every M <= 15
INT32_MAX = np.iinfo(np.int32).max
# rows read at a time in row order (`XorOp._row_blocks`); a power of two, so
# blocks of min(dim, ROW_BLOCK) rows divide every dimension 2^n
ROW_BLOCK = 1 << 12


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
# Every operator A on R^(2^n) is sum_m diag(a_m) P_m, where P_m maps basis
# index s to s ^ m and a_m[r] = A[r, r ^ m].  A ladder, B_k, B*_k and v_k
# have one mask each, h_k, G and T one (mask 0), a gamma two and H a few
# dozen at most, so an `XorOp` keeps, for each mask, the rows where a_m is
# nonzero and the values there.  Shifting by a mask is an index gather with
# rows ^ m.  Sums and products are exact in this form.  Where three or more
# terms meet in one entry, IEEE addition depends on their order, so the
# order is fixed: a matvec row or a norm row adds over ascending column, a
# product entry over ascending inner index, each from 0.0.  That keeps the
# reports byte-identical.  Every read in row order goes through one reader,
# `XorOp._row_blocks`, which sorts a block of rows only where two or more
# masks feed it and keeps nothing: no read changes an `XorOp`.


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
    return np.bincount(rows, weights=vals, minlength=dim)


def _real(x, what: str):
    """`x`, unless it holds complex data, which an `XorOp` never takes: TypeError then."""
    if np.iscomplexobj(x):
        raise TypeError(f"an XorOp is real, got {what} of dtype {np.asarray(x).dtype}")
    return x


def _sorted_entries(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n_bits: int) -> tuple:
    """The entries listed row by row, each row by ascending column."""
    order = np.argsort((rows.astype(np.int64) << n_bits) | cols, kind="stable")
    return rows.take(order), cols.take(order), vals.take(order)


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
    """A real square operator on R^dim, dim = 2^n, stored as its nonzero XOR-mask entries.

    `terms` maps each mask m, in ascending order, to (rows, vals): the int32
    rows r, ascending, where a_m[r] = A[r, r ^ m] is nonzero, and those
    float64 values; a mask that stores nothing is dropped.  An `XorOp` is
    never changed after it is made: its arrays are read-only, and results may
    share them.  It offers `A @ x` and `x @ A` (= A^T x) with a vector,
    `A @ B`, `+`, `-` and a scalar multiple, `adjoint`, `diagonal`, `entries`
    and `shape`; `op_norm_inf` gives its infinity norm.  Complex entries, a
    complex scalar multiple and a complex vector raise TypeError.
    """

    __array_ufunc__ = None  # a numpy scalar or array leaves `*` and `@` to this type
    dtype = np.dtype(np.float64)

    def __init__(self, dim: int, terms: dict | None = None):
        self.dim = dim
        self.terms = {m: t for m, t in sorted(terms.items()) if t[0].size} if terms else {}
        for rows, vals in self.terms.values():
            rows.flags.writeable = vals.flags.writeable = False

    @classmethod
    def from_entries(cls, rows, cols, vals, shape) -> XorOp:
        """The operator of the entries (rows[i], cols[i], vals[i]), duplicates summed in the order given.

        `shape` must be square with dimension a power of two; ValueError otherwise.
        Complex values raise TypeError.
        """
        shape = tuple(shape)
        dim = shape[0] if shape else 0
        if len(shape) != 2 or shape[1] != dim or dim < 1 or dim & (dim - 1):
            raise ValueError(f"an XOR-mask operator needs a square shape of dimension 2^n, got shape {shape}")
        check_index_width(dim)
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        vals = np.asarray(_real(vals, "entries"), dtype=np.float64)
        if rows.size and not (0 <= min(rows.min(), cols.min()) and max(rows.max(), cols.max()) < dim):
            raise ValueError(f"entry index out of range for shape {shape}")
        masks = rows ^ cols
        terms = {}
        for m in np.flatnonzero(np.bincount(masks, minlength=1)).tolist():
            sel = masks == m
            terms[m] = _from_dense(_accumulate(rows[sel], vals[sel], dim))
        return cls(dim, terms)

    @property
    def shape(self) -> tuple:
        return (self.dim, self.dim)

    def _dense(self, m: int) -> np.ndarray:
        """a_m as a vector of length dim, zero where no entry is stored."""
        out = np.zeros(self.dim)
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
            return np.zeros(0, np.int32), np.zeros(0, np.int32), np.zeros(0)
        rows, cols, vals = zip(*parts)
        return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)

    def _row_blocks(self):
        """The entries, an aligned block of min(dim, ROW_BLOCK) rows at a time.

        Yields (block, rows, cols, vals) for each block: `block` is the slice
        of rows it covers, and its entries come row by row, each row by
        ascending column.  A block fed by one mask is that mask's slice as
        stored; a block fed by two or more is sorted on its own, so no
        row-ordered copy of the whole operator is formed.
        """
        n_bits = self.dim.bit_length() - 1
        size = min(self.dim, ROW_BLOCK)
        # where each block starts in each mask's rows
        cuts = np.arange(0, self.dim + 1, size)
        starts = [(m, rows, vals, rows.searchsorted(cuts).tolist()) for m, (rows, vals) in self.terms.items()]
        for b in range(self.dim // size):
            parts = []
            for m, rows, vals, at in starts:
                lo, hi = at[b], at[b + 1]
                if lo < hi:
                    r = rows[lo:hi]
                    parts.append((r, r ^ np.int32(m), vals[lo:hi]))
            if len(parts) > 1:
                entries = _sorted_entries(*(np.concatenate(field) for field in zip(*parts)), n_bits)
            else:
                entries = parts[0] if parts else (np.zeros(0, np.int32), np.zeros(0, np.int32), np.zeros(0))
            yield slice(b * size, (b + 1) * size), *entries

    def diagonal(self) -> np.ndarray:
        """The diagonal A[r, r] as a vector."""
        return self._dense(0)

    def adjoint(self) -> XorOp:
        """A* = A^T: a*_m[r] = a_m[r ^ m]."""
        out = {}
        for m, (rows, vals) in self.terms.items():
            dense = np.zeros(self.dim)
            dense[rows ^ np.int32(m)] = vals
            out[m] = _from_dense(dense)
        return XorOp(self.dim, out)

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
        return XorOp(self.dim, {m: _add_parts(parts, self.dim) for m, parts in groups.items()})

    def __add__(self, other):
        return self._combine(other, 1.0)

    def __sub__(self, other):
        return self._combine(other, -1.0)

    def __mul__(self, scalar):
        if isinstance(scalar, XorOp) or np.ndim(scalar) != 0:
            return NotImplemented
        scalar = _real(scalar, "a scalar")
        return XorOp(self.dim, {m: _compress(rows, vals * scalar) for m, (rows, vals) in self.terms.items()})

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
        x = _real(x, "a vector")
        # up to two entries per row add alike in either order; a wider operator
        # is read in row blocks, A^T as the rows of its adjoint
        if len(self.terms) <= 2:
            rows, cols, vals = self.entries()
            if transpose:
                rows, cols = cols, rows
            return _accumulate(rows, vals * x.take(cols), self.dim)
        out = np.empty(self.dim)
        for block, rows, cols, vals in (self.adjoint() if transpose else self)._row_blocks():
            out[block] = _accumulate(rows - block.start, vals * x.take(cols), block.stop - block.start)
        return out

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
                groups.setdefault(m ^ k, []).append(_compress(rows, inner, vals * b.take(inner)))
        return XorOp(self.dim, {x: _add_parts(parts, self.dim) for x, parts in groups.items()})


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


def _max_row_sum(a: XorOp, moduli, count: int) -> list:
    """Largest row sum of `a` under each of `count` moduli; 0.0 for an operator that stores nothing.

    moduli(rows, cols, vals) gives, for a block of entries, `count` arrays of
    their nonnegative moduli in turn.  Read a row block at a time; each row
    is added by np.add.reduceat over ascending column, and rows that store
    nothing add 0.0.
    """
    worst = [[0.0] for _ in range(count)]
    for _, rows, cols, vals in a._row_blocks():
        if rows.size:
            starts = np.flatnonzero(np.diff(rows, prepend=-1))
            for sums, mod in zip(worst, moduli(rows, cols, vals)):
                sums.append(np.max(np.add.reduceat(mod, starts)))
    # np.max, not max: a NaN row sum must not lose to a finite one
    return [float(np.max(sums)) for sums in worst]


def op_norm_inf(a: XorOp) -> float:
    """Operator infinity-norm (max absolute row sum) of an `XorOp`; each row adds over ascending column."""
    return _max_row_sum(a, lambda rows, cols, vals: [np.abs(vals)], 1)[0]


# ---------------------------------------------------------------------------
# the CAR check
#
# The forms here are the dense mask vectors a_m of each operator, zero where
# it stores nothing.  A product is exact in this form,
# (AB)_{m ^ k} = sum a_m * b_k[r ^ m], the row sums of A are sum_m |a_m| and
# its column sums sum_m |a_m|[r ^ m].  A pair costs
# O(masks(a) * masks(b) * 2^n): a ladder has one mask and a gamma two, so an
# anticommutator is a few element-wise products of length 2^n.
#
# Every vector of length 2^n is held in a row layout, a (2^n / w, w) array
# with w = min(2^n, CAR_ROW_WIDTH), entry r at row r // w and column r % w.
# Since w is a power of two, the shift r -> r ^ m moves whole rows by m // w
# and permutes each row by m % w, so a shifted copy v[r ^ m] is a take along
# axis 0, a take along axis 1, or both through one spare array, and m = 0
# moves nothing.  Each mask's plan, its row and column index arrays, holds
# 2^n / w + w entries and is made once per check; the layout changes where
# entries sit in memory, not their values, so every sum and product is the
# one a flat vector would give, bit for bit.  A row move copies w entries at
# a time, and no index vector of length 2^n is formed or gathered through:
# at M = 7 the ladder check takes 16-17 ms and the gamma check 53-55 ms,
# against 19-21 ms and 56-58 ms through a flat gather by the vector r ^ m
# (on 2 cores; the plans hold 1040 entries each where one such vector
# holds 16384).
#
# Above one row block only the forms of the pair at hand are held, so the
# check's memory does not grow with the number of operators.  Every other
# vector is one of a few work arrays made once per check: a pair that made
# and freed its own would let the allocator hand their pages back, only to
# fault them in again for the next pair (at M = 7 the ladder check then
# takes about twice as long, with 14 080 page faults against 292).  A take
# into a work array uses mode="clip", which never clips here (every index is
# in range) but, unlike the default, writes to `out` directly instead of
# through a staging copy (at M = 7 the gamma check takes 41-44 ms against
# 51-54 ms).

# the row width w of the CAR check's row layout; a power of two, and with it
# a mask's plan holds 2^n / w + w entries
CAR_ROW_WIDTH = 16


def _shift_plan(m: int, layout: tuple) -> tuple:
    """(rows, cols), the plan of the shift r -> r ^ m in the row layout `layout` = (2^n / w, w).

    `rows` is the row index R ^ (m // w) and `cols` the column index
    c ^ (m % w), either None where its part of m is zero.
    """
    n_rows, width = layout
    high, low = divmod(m, width)
    return (np.arange(n_rows) ^ high if high else None), (np.arange(width) ^ low if low else None)


def _shift(v: np.ndarray, plan: tuple, out, spare: np.ndarray) -> np.ndarray:
    """v[r ^ m] in the row layout, for the `_shift_plan` (rows, cols) of a mask m: `v` itself for m = 0, else in `out`.

    `rows` moves whole rows and `cols` permutes each row; with both, the row
    move goes through `spare`.  An `out` of None makes a new array.
    """
    rows, cols = plan
    if rows is not None:
        v = v.take(rows, axis=0, out=out if cols is None else spare, mode="clip")
    if cols is not None:
        v = v.take(cols, axis=1, out=out, mode="clip")
    return v


def _add_moduli(c: np.ndarray, x: int, sums: list, plan, work: tuple) -> None:
    """Add |c|, an operator's mask-x form, to its row sums sums[0] and, shifted by x, its column sums sums[1].

    A sum that is still None is set to the moduli instead, in an array of
    `work`.  A form of zeros adds nothing: most anticommutators of a CAR
    check vanish.
    """
    if not c.any():
        return
    spare, moduli, moved, *totals = work
    parts = [np.abs(c, moduli)]
    if len(sums) > 1:
        parts.append(_shift(moduli, plan(x), moved, spare))
    for i, part in enumerate(parts):
        if sums[i] is None:
            sums[i] = totals[i]
            np.copyto(sums[i], part)
        else:
            sums[i] += part


def _pair_sums(a: dict, b: dict, cre: dict, plan, work: tuple, identity: bool) -> list:
    """Row and column sums of |AB* + B*A - I| (I only with `identity`) and row sums of |AB + BA|.

    `a`, `b` and `cre` are the mask forms of A, B and B*, each mask k of B*
    that of B, and `plan(m)` is the shift plan of mask m; a sum is None where
    its operator is zero.  Each mask x of the two anticommutators is formed
    in full, adding its mask pairs (m, k) with m ^ k = x in the order of the
    loops over A and B, and then its moduli add to the sums, the masks in the
    order they first appear.  A mask pair reads one shifted copy a_m[r ^ k]
    of A, shared by both.  Every array of 2^n entries is one of the arrays in
    `work`.
    """
    spare, moved, term, tmp, mixed, same, *totals = work
    groups = {}
    for m in a:
        for k in b:
            groups.setdefault(m ^ k, []).append((m, k))
    if identity:
        groups.setdefault(0, [])
    mixed_sums, same_sums = [None, None], [None]
    for x, pairs in groups.items():
        if not pairs:  # the identity's own mask
            mixed.fill(0.0)
            same.fill(0.0)
        for i, (m, k) in enumerate(pairs):
            am = a[m]
            am_k = _shift(am, plan(k), moved, spare)
            for out, ck in ((mixed, cre[k]), (same, b[k])):
                # the first pair forms the mask in place, a later one adds to it
                dest = term if i else out
                np.multiply(am, _shift(ck, plan(m), dest, spare), dest)
                dest += np.multiply(ck, am_k, tmp)
                if i:
                    out += term
        if identity and x == 0:
            mixed -= 1.0
        _add_moduli(mixed, x, mixed_sums, plan, (spare, term, tmp, *totals[:2]))
        _add_moduli(same, x, same_sums, plan, (spare, term, tmp, totals[2]))
    return mixed_sums + same_sums


def car_deviation(ann: list) -> float:
    """Max deviation of the canonical anticommutation relations of the `XorOp` annihilators `ann`.

    Both families are formed for j <= j' only: {a_j, a_j'} is symmetric, and
    the row sums of {a_j', a*_j} are the column sums of its adjoint
    {a_j, a*_j'}; {a*_j, a*_j'} is the adjoint of {a_j', a_j} and adds nothing.
    Above ROW_BLOCK rows only the pair (j, j') is held in mask form at a
    time, so the check's memory does not grow with the number of operators;
    below, every operator's forms are made once and kept.  a*_j' is the form
    a_m[r ^ m] of the real a_j'.  Every other array is one of the work
    arrays made once, so a pair allocates only the forms of a_j.  The
    operators must share one dimension; ValueError otherwise.
    """
    shapes = list(dict.fromkeys(a.shape for a in ann))
    if len(shapes) > 1:
        raise ValueError(f"CAR operators need one shape, got shapes {shapes}")
    dim = shapes[0][0] if shapes else 1
    width = min(dim, CAR_ROW_WIDTH)
    layout = (dim // width, width)
    work = tuple(np.empty(layout) for _ in range(9))
    plan = functools.cache(functools.partial(_shift_plan, layout=layout))

    def forms(j: int) -> dict:
        return {m: ann[j]._dense(m).reshape(layout) for m in ann[j].terms}

    if dim <= ROW_BLOCK:
        # small forms are made once: remade for each pair, they slow the
        # benchmark's verify-m5 pass (dim 1024) from 43.3 to 44.3 ms, 10 of 10 pairs
        forms = functools.cache(forms)
    worst = 0.0
    for jp in range(len(ann)):
        b = forms(jp)
        cre = {k: _shift(bk, plan(k), None, work[0]) for k, bk in b.items()}
        for j in range(jp + 1):
            a = b if j == jp else forms(j)
            sums = _pair_sums(a, b, cre, plan, work, j == jp)
            # np.max, not max: a NaN sum must not lose to a finite one
            worst = np.max([worst, *(s.max() for s in sums if s is not None)])
    return float(worst)


def anticommutator_check(ladders: list) -> float:
    """CAR deviation of the bare ladder operators C_j, all 2M of them in orbital order; exactly 0.0."""
    return car_deviation(ladders)


# ---------------------------------------------------------------------------
# diagonal generators: exact entry-wise factors


def diagonal_commutator_norm(a: XorOp, g, factors: list) -> list:
    """Infinity norms of the operators with entries f(g_r - g_c) A_rc, one per f in `factors`, for D = diag(g).

    `g` is the real diagonal of D.  f(q) = q gives ||[D, A]||;
    f(q) = exp(-i*alpha*q) - phase gives ||exp(-i*alpha*D) A exp(i*alpha*D) - phase A||
    exactly: no series is summed, nothing is truncated, and a complex factor
    meets the entries only as a vector, since the norm reads their moduli.
    On mask m the factor is f(g_r - g_{r ^ m}).  A is read once for all the
    factors: each row block gathers g_r - g_c once and gives one moduli
    array per factor.  Whether a matrix really is diag(g) is the caller's to
    check.  A modulus of zero still takes its place in its row, so every row
    adds in the same order as in `op_norm_inf`.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 1 or a.shape != (g.size, g.size):
        raise ValueError(f"dimension mismatch: operator {a.shape}, diagonal {g.shape}")

    def moduli(rows, cols, vals):
        q = g.take(rows) - g.take(cols)
        return (np.abs(vals * f(q)) for f in factors)

    return _max_row_sum(a, moduli, len(factors))


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


def expectation(phi: np.ndarray, a, psi: np.ndarray) -> float:
    """Inner product (phi, A psi) of real vectors; TypeError for a complex one."""
    if a.shape[1] != psi.shape[0] or a.shape[0] != phi.shape[0]:
        raise ValueError(
            f"dimension mismatch: operator {a.shape}, bra {phi.shape}, ket {psi.shape}"
        )
    return float(np.vdot(_real(phi, "a bra"), a @ psi))
