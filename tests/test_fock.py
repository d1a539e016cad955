import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import coo_array, csr_array, diags_array, eye_array, identity, kron, vstack

from bcslab.errors import ResourceLimitError
from bcslab.fock import (
    CAR_ROW_WIDTH,
    ROW_BLOCK,
    XorOp,
    _shift,
    _shift_plan,
    anticommutator_check,
    basis_state,
    car_deviation,
    commutator,
    diagonal_commutator_norm,
    expectation,
    identity_op,
    ladder_matrix,
    op_norm_inf,
    space_dim,
    vacuum_state,
)
from bcslab.hamiltonian import OperatorBundle
from bcslab.model import explicit_modes
from bcslab.sectors import PairSectors

from conftest import (
    assert_same_entries,
    apply_annihilate,
    apply_create,
    conjugate_series,
    csr_adjoint,
    csr_norm,
    dense,
    dense_conjugation,
    dense_diagonal_commutator,
    dense_evolution,
    evolve_state,
    random_antisymmetric,
    random_selfadjoint,
    ladders_of,
    random_sparse,
    to_csr,
    xor_of,
)


# ---------------------------------------------------------------------------
# bit-level ladder action


def test_annihilate_lowest_orbital():
    # no orbitals left of j=0
    assert apply_annihilate(0, 0b0001, 4) == (1, 0b0000)


def test_annihilate_with_one_electron_left():
    # |1,1,0,0>: one occupied orbital below j=1 flips the sign
    assert apply_annihilate(1, 0b0011, 4) == (-1, 0b0001)


def test_annihilate_empty_orbital_vanishes():
    assert apply_annihilate(0, 0b0010, 4) is None


def test_create_on_vacuum():
    assert apply_create(1, 0b0000, 4) == (1, 0b0010)


def test_create_with_two_electrons_left():
    # sign = (-1)^2 from the two occupied orbitals below j=2
    assert apply_create(2, 0b0011, 4) == (1, 0b0111)


def test_create_occupied_orbital_vanishes():
    assert apply_create(0, 0b0001, 4) is None


@pytest.mark.parametrize("op", [apply_annihilate, apply_create])
def test_orbital_index_range_checked(op):
    with pytest.raises(ValueError):
        op(4, 0b0000, 4)
    with pytest.raises(ValueError):
        op(-1, 0b0000, 4)


# ---------------------------------------------------------------------------
# matrix realizations


@pytest.mark.parametrize("m", [1, 2])
def test_ladder_matrix_matches_bit_level_oracle(m):
    # every column of C_j is the bit-level action on that basis state
    for j in range(2 * m):
        c = dense(ladder_matrix(j, m))
        for bits in range(space_dim(m)):
            expected = np.zeros(space_dim(m))
            hit = apply_annihilate(j, bits, 2 * m)
            if hit is not None:
                expected[hit[1]] = hit[0]
            assert np.array_equal(c[:, bits], expected)


def test_ladder_matrix_single_mode_by_hand():
    # dim 4, basis |n0,n1> = bits; C_0 sends bits {1,3} to {0,2} with sign +1
    c0 = dense(ladder_matrix(0, 1))
    expected = np.zeros((4, 4))
    expected[0b00, 0b01] = 1.0
    expected[0b10, 0b11] = 1.0
    assert np.array_equal(c0, expected)


def test_ladder_nilpotent():
    for m, j in [(1, 0), (2, 3), (3, 2)]:
        c = ladder_matrix(j, m)
        assert op_norm_inf(c @ c) == 0.0
        cdag = c.adjoint()
        assert op_norm_inf(cdag @ cdag) == 0.0


def test_ladder_nonzero_count():
    assert ladder_matrix(3, 2).entries()[0].size == 8  # 2^(2M-1) at M=2
    for m in (1, 2, 3):
        for j in range(2 * m):
            c = ladder_matrix(j, m)
            assert c.entries()[0].size == space_dim(m) // 2
            assert list(c.terms) == [1 << j]  # every entry on the one mask 2^j


def test_ladder_entries_are_signs():
    c = ladder_matrix(2, 2)
    assert c.dtype == np.float64
    assert set(np.unique(c.entries()[2])) <= {-1.0, 1.0}


def test_adjoint_involution():
    c = ladder_matrix(1, 2)
    assert op_norm_inf(c.adjoint().adjoint() - c) == 0.0
    a = random_sparse(16, np.random.default_rng(3), real=True)
    adj = xor_of(a).adjoint()
    assert isinstance(adj, XorOp) and adj.dtype == a.dtype
    assert np.array_equal(dense(adj), a.toarray().T)


@pytest.mark.parametrize("kind", ["sorted", "unsorted", "empty", "rectangular"])
def test_adjoint_keeps_the_arrays_of_the_transpose_conversion(kind):
    # scipy's conversion a* = csr_array(conj(a).T) is the reference, entry for entry; the order in
    # which the entries reach the type does not matter, and a rectangular array is no operator
    rng = np.random.default_rng(7)
    if kind == "rectangular":
        with pytest.raises(ValueError, match=re.escape("(6, 11)")):
            xor_of(random_sparse(12, rng, density=0.3, real=True)[:6, :11])
        return
    a = csr_array((8, 8)) if kind == "empty" else random_sparse(16, rng, density=0.3, real=True)
    coo = a.tocoo()
    flip = slice(None, None, -1) if kind == "unsorted" else slice(None)
    op = XorOp.from_entries(coo.row[flip], coo.col[flip], coo.data[flip], a.shape)
    adj = op.adjoint()
    assert adj.shape == a.shape and adj.dtype == a.dtype
    assert_same_entries(adj, csr_adjoint(a))
    assert all(rows.dtype == np.int32 for rows, _ in adj.terms.values())
    assert np.array_equal(dense(adj), a.toarray().T)


# ---------------------------------------------------------------------------
# the XorOp against scipy CSR, the oracle: on random real operators with NaN
# entries and with three or more masks in a row, matvec and norm agree bit for
# bit, and every algebraic result entry for entry


def _random_pair(dim, rng, nan):
    """(scipy CSR, XorOp) of one random real operator; with `nan`, two entries are NaN."""
    a = random_sparse(dim, rng, density=0.75 if dim == 4 else 0.5, real=True)
    if nan:
        a = csr_array(a, copy=True)
        a.data[rng.choice(a.nnz, size=2, replace=False)] = np.nan
    op = xor_of(a)
    assert np.max(np.diff(a.indptr)) >= 3  # rows where three or more masks meet
    return a, op


CASES = [(dim, nan) for dim in (4, 16, 64) for nan in (False, True)]
CASE_IDS = [f"{dim}-real{'-nan' if nan else ''}" for dim, nan in CASES]


@pytest.mark.parametrize(("dim", "nan"), CASES, ids=CASE_IDS)
def test_xor_op_matvec_and_norm_are_bit_identical_to_csr(dim, nan):
    rng = np.random.default_rng(dim + 2 + nan)
    a, op = _random_pair(dim, rng, nan)
    x = rng.standard_normal(dim)
    np.testing.assert_array_equal(op @ x, a @ x, strict=True)
    np.testing.assert_array_equal(x @ op, csr_array(a.T) @ x, strict=True)
    np.testing.assert_array_equal(op_norm_inf(op.adjoint()), csr_norm(csr_adjoint(a)), strict=True)
    np.testing.assert_array_equal(op_norm_inf(op), csr_norm(a), strict=True)


def _random_masks(dim, rng, nan, n_masks=8):
    """(scipy CSR, XorOp) of a random real operator on min(dim, n_masks) XOR masks, each at about 70% of its rows.

    Built from its entries, never as a dense matrix, so it reaches dimensions
    past ROW_BLOCK; with `nan`, one entry is NaN.
    """
    masks = rng.choice(dim, size=min(dim, n_masks), replace=False)
    rows = []
    for _ in masks:
        keep = rng.random(dim) < 0.7
        keep[rng.integers(dim)] = True
        rows.append(np.flatnonzero(keep))
    cols = np.concatenate([r ^ m for r, m in zip(rows, masks)])
    rows = np.concatenate(rows)
    vals = rng.standard_normal(rows.size)
    if nan:
        vals[rng.integers(vals.size)] = np.nan
    op = XorOp.from_entries(rows, cols, vals, (dim, dim))
    a = to_csr(op)
    a.sort_indices()
    assert len(op.terms) == min(dim, n_masks)
    return a, op


# eight masks keep the bare dimension as id; one and two masks only where the dimension holds more
ROW_BLOCK_CASES = [
    pytest.param(dim, n_masks, id=str(dim) if n_masks == 8 else f"{dim}-{n_masks}mask")
    for n_masks in (8, 1, 2)
    for dim in (1, 2, 4, 64, ROW_BLOCK, 2 * ROW_BLOCK, 4 * ROW_BLOCK)
    if n_masks == 8 or n_masks < dim
]


@pytest.mark.parametrize(("dim", "n_masks"), ROW_BLOCK_CASES)
@pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan"])
def test_row_block_reads_are_bit_identical_to_csr(dim, n_masks, nan):
    """A x, x A, the infinity norm and the diagonal-commutator norms read operators in aligned row blocks
    (A x and x A of one or two masks read the stored entries whole); with one, two and eight masks,
    below, at and above the block size each row and column adds in the CSR order.  Several factors
    in one read give each factor's norm alone, bit for bit."""
    rng = np.random.default_rng((dim, nan, n_masks))
    a, op = _random_masks(dim, rng, nan, n_masks)
    x = rng.standard_normal(dim)
    g = rng.integers(-3, 4, size=dim).astype(np.float64)
    np.testing.assert_array_equal(op @ x, a @ x, strict=True)
    np.testing.assert_array_equal(x @ op, csr_array(a.T) @ x, strict=True)
    np.testing.assert_array_equal(op_norm_inf(op), csr_norm(a), strict=True)
    coo = a.tocoo()
    factors = [charge, covariance(1.0, np.exp(1j)), covariance(math.pi, 1.0)]
    fused = diagonal_commutator_norm(op, g, factors)
    assert len(fused) == len(factors)
    for f, norm in zip(factors, fused):
        moduli = np.abs(coo.data * f(g[coo.row] - g[coo.col]))
        oracle = csr_norm(csr_array((moduli, (coo.row, coo.col)), shape=a.shape))
        np.testing.assert_array_equal(diagonal_commutator_norm(op, g, [f])[0], oracle, strict=True)
        np.testing.assert_array_equal(norm, oracle, strict=True)


@pytest.mark.parametrize("dim", [64, 2 * ROW_BLOCK])
def test_xor_op_is_unchanged_by_every_read(dim):
    """No read of an `XorOp` sets an attribute, swaps a term or makes a stored array writable."""
    rng = np.random.default_rng(dim)
    _, op = _random_masks(dim, rng, False, 3)
    x = rng.standard_normal(dim)
    g = rng.integers(-3, 4, size=dim).astype(np.float64)
    state, terms = dict(vars(op)), dict(op.terms)
    copies = {m: (rows.copy(), vals.copy()) for m, (rows, vals) in terms.items()}
    reads = {
        "A @ x": lambda: op @ x,
        "x @ A": lambda: x @ op,
        "op_norm_inf": lambda: op_norm_inf(op),
        "diagonal_commutator_norm": lambda: diagonal_commutator_norm(op, g, [charge, covariance(1.0, 1.0)]),
        "entries": op.entries,
        "adjoint": op.adjoint,
        "A @ A": lambda: op @ op,
    }
    for name, read in reads.items():
        read()
        assert vars(op).keys() == state.keys() and all(vars(op)[k] is v for k, v in state.items()), name
        assert op.terms.keys() == terms.keys() and all(op.terms[m] is t for m, t in terms.items()), name
        for m, (rows, vals) in op.terms.items():
            assert not rows.flags.writeable and not vals.flags.writeable, name
            np.testing.assert_array_equal(rows, copies[m][0], strict=True)
            np.testing.assert_array_equal(vals, copies[m][1], strict=True)


@pytest.mark.parametrize(("dim", "nan"), CASES, ids=CASE_IDS)
def test_xor_op_algebra_matches_csr_entry_for_entry(dim, nan):
    rng = np.random.default_rng(102 + dim + nan)
    a, op = _random_pair(dim, rng, nan)
    b, other = _random_pair(dim, rng, False)
    assert_same_entries(op, a)
    assert_same_entries(op @ other, a @ b)
    assert_same_entries(other @ op, b @ a)
    assert_same_entries(op @ op, a @ a)
    assert_same_entries(op + other, a + b)
    assert_same_entries(op - other, a - b)
    assert_same_entries(other - op, b - a)
    assert_same_entries(op - op, a - a)
    for c in (2.5, 0.0, np.float64(1e-300)):
        assert_same_entries(c * op, c * a)
        assert_same_entries(op * c, a * c)
    assert_same_entries(op.adjoint(), csr_adjoint(a))
    np.testing.assert_array_equal(op.diagonal(), a.diagonal(), strict=True)
    assert op.shape == a.shape and (op @ other).dtype == (a @ b).dtype


def test_xor_op_rejects_what_it_cannot_hold():
    with pytest.raises(ValueError, match="out of range"):
        XorOp.from_entries([0], [4], [1.0], (4, 4))
    with pytest.raises(ValueError, match="dimension mismatch"):
        ladder_matrix(0, 1) @ ladder_matrix(0, 2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        ladder_matrix(0, 1) @ np.ones(8)
    with pytest.raises(TypeError):
        ladder_matrix(0, 1) + 1.0
    rows = ladder_matrix(0, 1).terms[1][0]
    with pytest.raises(ValueError, match="read-only"):
        rows[0] = 1


@pytest.mark.parametrize(
    "door",
    [
        lambda op: XorOp.from_entries([0], [1], [1j], op.shape),
        lambda op: 1j * op,
        lambda op: op @ np.full(op.dim, 1j),
        lambda op: np.full(op.dim, 1j) @ op,
    ],
    ids=["entries", "scalar", "matvec", "transposed-matvec"],
)
def test_xor_op_refuses_complex_data(door):
    # every operator of the lab is real, so complex data is an error, never cast to its real part
    with pytest.raises(TypeError, match="complex128"):
        door(ladder_matrix(0, 1))


def test_mode_cap_enforced(monkeypatch):
    monkeypatch.setenv("BCSLAB_DIM_CAP", "2")
    with pytest.raises(ResourceLimitError):
        ladder_matrix(0, 3)
    monkeypatch.setenv("BCSLAB_DIM_CAP", "3")
    ladder_matrix(0, 3)  # allowed again


def test_int32_index_limit_raises_before_allocating(monkeypatch):
    """Past dimension 2^31 - 1 (M = 16) no int32 index reaches every row, and there is no int64 route.

    With the mode cap lifted to 16, the ladders and the pair-sector map raise
    ResourceLimitError through one check, before any array of the 2^32-state
    space exists; one state vector there would take 32 GiB.
    """
    monkeypatch.setenv("BCSLAB_DIM_CAP", "16")
    half = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1)]
    mt = explicit_modes(half + [tuple(-c for c in n) for n in half])
    assert mt.n_modes == 16
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="int32"):
            ladder_matrix(0, 16)
        with pytest.raises(ResourceLimitError, match="int32"):
            PairSectors(mt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak} bytes"


# every mask below 2^n at these dimensions; at 16384 the four kinds of mask and seeded random ones
SHIFT_CASES = [(dim, range(dim)) for dim in (1, 2, 4, 8, 16, 32, 1024)] + [
    (16384, [0, 5, 16 * 37, 16 * 37 + 5, 16383, *np.random.default_rng(16384).integers(16384, size=64).tolist()])
]


@pytest.mark.parametrize(("dim", "masks"), SHIFT_CASES, ids=[str(dim) for dim, _ in SHIFT_CASES])
def test_row_layout_shift_is_the_literal_xor_gather(dim, masks):
    """The CAR check's shift of a (dim // w, w) form by a mask m is v[r ^ m]: zero, in-row, row-only and two-part masks."""
    rng = np.random.default_rng(dim)
    v = rng.standard_normal(dim)
    width = min(dim, CAR_ROW_WIDTH)
    layout = (dim // width, width)
    spare = np.empty(layout)
    kinds = set()
    for m in masks:
        plan = _shift_plan(m, layout)
        kinds.add(tuple(part is not None for part in plan))
        literal = v[np.arange(dim) ^ m]
        for out in (np.empty(layout), None):
            shifted = _shift(v.reshape(layout), plan, out, spare)
            assert shifted.shape == layout
            np.testing.assert_array_equal(shifted.ravel(), literal, strict=True)
    # (row move, in-row permutation): one row has no row moves, and dim 1 the zero mask alone
    expected = {(False, False)}
    if dim > 1:
        expected.add((False, True))
    if dim > CAR_ROW_WIDTH:
        expected |= {(True, False), (True, True)}
    assert kinds == expected


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_car_exact(m):
    assert anticommutator_check(ladders_of(m)) == 0.0


def _with_value(op, i, value):
    """`op` with the value of its entry number i (in `entries` order) replaced."""
    rows, cols, vals = op.entries()
    vals = vals.copy()
    vals[i] = value
    return XorOp.from_entries(rows, cols, vals, op.shape)


@pytest.mark.parametrize("j", range(4))
def test_car_deviation_detects_one_flipped_sign(j):
    # {a*, a*} is the adjoint of {a, a}; the families that remain still see one wrong sign
    ann = [ladder_matrix(i, 2) for i in range(4)]
    assert car_deviation(ann) == 0.0
    ann[j] = _with_value(ann[j], 0, -ann[j].entries()[2][0])
    assert car_deviation(ann) > 0.0


def _car_deviation_full_loop(ann):
    """Literal CAR deviation in scipy: every (j, j') of {a_j, a*_j'} - delta I and of {a_j, a_j'}."""
    ann = [to_csr(a) for a in ann]
    ident = eye_array(ann[0].shape[0], format="csr")
    worst = 0.0
    for j, a in enumerate(ann):
        for jp, b in enumerate(ann):
            b_dag = csr_adjoint(b)
            mixed = a @ b_dag + b_dag @ a - (ident if j == jp else 0.0 * ident)
            worst = max(worst, csr_norm(mixed), csr_norm(a @ b + b @ a))
    return worst


@pytest.mark.parametrize("dim", [16, 64])
def test_car_deviation_matches_full_loop(dim):
    rng = np.random.default_rng(dim + 1)
    ann = [random_sparse(dim, rng, density=0.1, real=True) for _ in range(4)]
    assert car_deviation([xor_of(a) for a in ann]) == pytest.approx(_car_deviation_full_loop(ann), rel=1e-14, abs=0.0)


def test_car_deviation_reads_the_mixed_pair_it_does_not_build():
    # a_1 = C_3 + eps P with P = Y (x) 1 on orbital 3, Y = e_2 (e_3 + e_5)^T on orbitals 0..2:
    # Y is odd, so P anticommutes with C_3 and C*_3, and {C_0, P} = P^2 = 0.  The only
    # first-order defect is {a_0, a*_1}, whose two dense columns (2 eps) are the rows of the
    # unbuilt {a_1, a*_0}; its own rows and {a_1, a*_1} - I stay at eps and 2 eps^2.
    eps = 1e-3
    rows = [2, 2, 10, 10]
    cols = [3, 5, 11, 13]
    planted = csr_array((np.full(4, eps), (rows, cols)), shape=(16, 16))
    ann = [ladder_matrix(0, 2), xor_of(to_csr(ladder_matrix(3, 2)) + planted)]
    cre_1 = ann[1].adjoint()
    built = ann[0] @ cre_1 + cre_1 @ ann[0]
    assert op_norm_inf(built) == pytest.approx(eps)
    assert car_deviation(ann) == pytest.approx(2 * eps, rel=1e-14)
    assert car_deviation(ann) == pytest.approx(_car_deviation_full_loop(ann), rel=1e-14)


@pytest.mark.parametrize("dim", [16, 64])
def test_car_deviation_across_stacks_matches_full_loop(dim):
    # five dense operators with many masks each, so every pair j <= j' sums
    # rows and columns over dozens of XOR-diagonal vectors
    rng = np.random.default_rng(dim + 11)
    ann = [random_sparse(dim, rng, density=0.3, real=True) for _ in range(5)]
    assert car_deviation([xor_of(a) for a in ann]) == pytest.approx(_car_deviation_full_loop(ann), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("j", range(6))
def test_car_deviation_detects_a_flipped_sign_in_any_stack(j):
    # the six M = 3 ladders, one sign flipped in the last stored entry of ladder j
    ann = [ladder_matrix(i, 3) for i in range(6)]
    assert car_deviation(ann) == 0.0
    ann[j] = _with_value(ann[j], -1, -ann[j].entries()[2][-1])
    assert car_deviation(ann) > 0.0


@pytest.mark.parametrize("stack_rows", [128, 8192])
def test_car_deviation_reads_a_column_defect_inside_a_stack(stack_rows):
    # the construction of the test above on M = 3, with P = Y (x) 1 on orbitals 3..5;
    # C_4 and C_5 carry the parity string over orbitals 0..2, so they anticommute with
    # P and P*, and only the column sums of the defect {a_0, a*_3} reach 2 eps; each
    # operator is stacked as stack_rows / 64 diagonal copies, 1 (x) a, which keeps
    # every anticommutator a diagonal stack of the single one and so every deviation
    eps = 1e-3
    rows = [2 + 8 * s for s in range(8) for _ in range(2)]
    cols = [c + 8 * s for s in range(8) for c in (3, 5)]
    planted = csr_array((np.full(16, eps), (rows, cols)), shape=(64, 64))
    single = [to_csr(ladder_matrix(j, 3)) for j in (0, 4, 5)] + [to_csr(ladder_matrix(3, 3)) + planted]
    ann = [xor_of(kron(identity(stack_rows // 64), a)) for a in single]
    assert ann[0].shape == (stack_rows, stack_rows)
    cre_3 = ann[3].adjoint()
    assert op_norm_inf(ann[0] @ cre_3 + cre_3 @ ann[0]) == pytest.approx(eps)
    assert car_deviation(ann) == pytest.approx(2 * eps, rel=1e-14)
    assert car_deviation(ann) == pytest.approx(_car_deviation_full_loop(ann), rel=1e-14)


@pytest.mark.parametrize("j", [0, 3])
def test_car_deviation_of_an_operator_with_a_nan_entry_is_nan(j):
    # a NaN must not lose to the finite deviations of the other pairs
    ann = [ladder_matrix(i, 2) for i in range(4)]
    ann[j] = _with_value(ann[j], 0, np.nan)
    assert math.isnan(car_deviation(ann))


def _dense_from_entries(op):
    rows, cols, vals = op.entries()
    out = np.zeros(op.shape)
    out[rows, cols] = vals
    return out


def test_xor_form_rebuilds_the_matrix_exactly():
    a = random_sparse(32, np.random.default_rng(8), density=0.4, real=True)
    op = xor_of(a)
    assert np.array_equal(_dense_from_entries(op), a.toarray())
    rows, cols, vals = op.entries()
    masks = rows ^ cols
    # mask by ascending mask, each mask by ascending row, int32 indices and no zero value
    assert np.all(np.diff(masks) >= 0) and np.all(np.diff(rows)[np.diff(masks) == 0] > 0)
    assert rows.dtype == cols.dtype == np.int32 and np.all(vals != 0)
    assert list(op.terms) == np.unique(masks).tolist()
    assert list(ladder_matrix(2, 2).terms) == [1 << 2]


def test_xor_form_sums_duplicate_coo_entries():
    rows = np.array([0, 0, 3, 5, 5, 5, 7])
    cols = np.array([1, 1, 3, 2, 2, 6, 0])
    data = np.array([0.5, 0.25, -1.0, 1.0, 2.0, 3.0, 1e-3])
    a = coo_array((data, (rows, cols)), shape=(8, 8))
    op = XorOp.from_entries(rows, cols, data, (8, 8))
    assert np.array_equal(_dense_from_entries(op), a.toarray())
    assert op.terms[1][0][0] == 0 and op.terms[1][1][0] == 0.75


def test_xor_form_drops_a_mask_whose_entries_cancel():
    # the duplicates 1.0 and -1.0 at (0, 1) cancel, so mask 1 stores no row and is not kept
    op = XorOp.from_entries([0, 0, 1], [1, 1, 1], [1.0, -1.0, 2.0], (4, 4))
    assert list(op.terms) == [0]
    assert np.array_equal(op.diagonal(), [0.0, 2.0, 0.0, 0.0])
    assert not XorOp(4, {3: (np.zeros(0, np.int32), np.zeros(0))}).terms


@pytest.mark.parametrize(
    "shapes",
    [[(4, 8)], [(4, 4), (8, 8)], [(8, 8), (8, 8), (8, 4)], [(6, 6)], [(0, 0)]],
    ids=["non-square", "mixed", "mixed-last", "dim-6", "dim-0"],
)
def test_car_deviation_rejects_shapes_it_cannot_read(shapes):
    # a shape that is not square of dimension 2^n has no XOR-mask operator; mixed dimensions have no CAR check
    with pytest.raises(ValueError, match=re.escape(str(shapes[-1]))):
        car_deviation([xor_of(csr_array(shape)) for shape in shapes])


def test_car_deviation_of_a_zero_annihilator_is_one():
    # {0, 0*} - I = -I: the identity alone sets the deviation
    assert car_deviation([XorOp(4)]) == 1.0
    assert car_deviation([XorOp(1)]) == 1.0
    assert car_deviation([]) == 0.0


def test_vacuum_annihilation_and_top_state():
    for m in (1, 2, 3):
        vac = vacuum_state(m)
        top = basis_state(space_dim(m) - 1, m)
        for j in range(2 * m):
            c = ladder_matrix(j, m)
            assert np.all(c @ vac == 0)
            assert np.all(c.adjoint() @ top == 0)


def test_basis_reconstruction_in_mode_order():
    # creators applied rightmost-first over ascending orbitals give sign +1
    for m in (2, 3):
        for bits in range(space_dim(m)):
            occupied = [j for j in range(2 * m) if (bits >> j) & 1]
            state, sign = 0, 1
            for j in reversed(occupied):
                s, state = apply_create(j, state, 2 * m)
                sign *= s
            assert state == bits
            assert sign == 1


def test_number_operator_counts_bits():
    m = 3
    total = None
    for j in range(2 * m):
        c = ladder_matrix(j, m)
        n_j = c.adjoint() @ c
        total = n_j if total is None else total + n_j
    diag = dense(total).diagonal().real
    expected = [bin(bits).count("1") for bits in range(space_dim(m))]
    assert np.array_equal(diag, expected)
    assert np.array_equal(total.diagonal(), diag)
    offdiag = dense(total) - np.diag(diag)
    assert np.all(offdiag == 0)


# ---------------------------------------------------------------------------
# the series and Taylor oracles of conftest, which the sector-block
# exponential of `analysis` is tested against


def test_conjugate_series_alpha_zero_exact():
    rng = np.random.default_rng(0)
    a = random_sparse(16, rng)
    k = random_antisymmetric(16, rng)
    out = conjugate_series(a, k, 0.0, tol=1e-12)
    assert csr_norm(out - a) == 0.0


def test_conjugate_series_requires_selfadjoint():
    rng = np.random.default_rng(1)
    a = random_sparse(8, rng)
    b = random_sparse(8, rng)  # neither selfadjoint nor anti-selfadjoint
    with pytest.raises(ValueError):
        conjugate_series(a, b, 1.0)
    with pytest.raises(ValueError):
        conjugate_series(a, random_antisymmetric(8, rng), 1.0, tol=0.0)


def test_conjugate_series_matches_dense_exponentials():
    rng = np.random.default_rng(2)
    for m in (1, 2, 3):
        dim = space_dim(m)
        a = random_sparse(dim, rng)
        k = 1j * random_selfadjoint(dim, rng, scale=0.5)
        for alpha in (0.3, 1.0):
            series = conjugate_series(a, k, alpha, tol=1e-12)
            oracle = dense_conjugation(a, k, alpha)
            assert np.max(np.abs(series.toarray() - oracle)) < 1e-10


def test_conjugate_series_rejects_a_mismatched_operator():
    rng = np.random.default_rng(10)
    with pytest.raises(ValueError, match="dimension mismatch"):
        conjugate_series(random_sparse(8, rng), random_antisymmetric(16, rng), 1.0)


def test_conjugate_series_agrees_with_evolved_states():
    rng = np.random.default_rng(3)
    dim = space_dim(2)
    a = random_sparse(dim, rng)
    k = 1j * random_selfadjoint(dim, rng, scale=0.4)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    alpha = 0.7
    lhs = conjugate_series(a, k, alpha, tol=1e-12) @ v
    rhs = evolve_state(-alpha * k, a @ evolve_state(alpha * k, v))
    assert np.linalg.norm(lhs - rhs) < 1e-9


def dense_norm(x):
    """Max absolute row sum of a dense matrix."""
    return float(np.max(np.abs(x).sum(axis=1)))


def covariance(alpha, phase):
    """f(q) = exp(-i alpha q) - phase, the factor of the number-phase covariance deviation."""
    return lambda q: np.exp(-1j * alpha * q) - phase


def charge(q):
    """f(q) = q, the factor of the commutator [D, A]."""
    return q


@pytest.mark.parametrize("instance", ["two_mode", "three_mode"])
def test_diagonal_commutator_norm_matches_series_by_number_operator(instance, request):
    mt, kernel = request.getfixturevalue(instance)
    bundle = OperatorBundle(mt, kernel)
    big_g = bundle.G
    g = big_g.diagonal()
    ops = [ladder_matrix(j, mt.n_modes) for j in range(mt.n_orbitals)] + [bundle.H]
    assert diagonal_commutator_norm(bundle.H, g, [charge])[0] == op_norm_inf(commutator(big_g, bundle.H)) == 0.0
    alphas = (0.3, 1.0, math.pi)
    for a in ops:
        # against the unrotated A, so a ladder deviates by |exp(i alpha) - 1| per row
        devs = diagonal_commutator_norm(a, g, [covariance(alpha, 1.0) for alpha in alphas])
        for alpha, dev in zip(alphas, devs):
            series = conjugate_series(a, 1j * to_csr(big_g), alpha, tol=1e-12)
            assert abs(dev - csr_norm(series - to_csr(a))) <= 1e-12


def test_diagonal_commutator_norm_matches_dense_oracles():
    rng = np.random.default_rng(4)
    for dim in (4, 16, 64):
        a = random_sparse(dim, rng, real=True)
        op = xor_of(a)
        g = rng.integers(-3, 4, size=dim).astype(np.float64)
        expected = dense_norm(dense_diagonal_commutator(a, g))
        assert expected > 0.0
        [norm] = diagonal_commutator_norm(op, g, [charge])
        assert abs(norm - expected) <= 1e-12 * expected
        # bit for bit the CSR row sum of the entry-wise moduli, zero moduli in their places
        rows, cols = a.nonzero()
        moduli = csr_array((np.abs(a.toarray()[rows, cols] * (g[rows] - g[cols])), (rows, cols)), shape=a.shape)
        assert norm == csr_norm(moduli)
        for alpha in (0.3, 1.0, math.pi):
            phase = np.exp(1j * alpha)
            oracle = dense_conjugation(a, 1j * diags_array(g), alpha) - phase * a.toarray()
            [dev] = diagonal_commutator_norm(op, g, [covariance(alpha, phase)])
            assert abs(dev - dense_norm(oracle)) <= 1e-12


def test_diagonal_commutator_norm_alpha_zero_exact():
    rng = np.random.default_rng(5)
    a = xor_of(random_sparse(16, rng, real=True))
    g = rng.integers(0, 5, size=16).astype(np.float64)
    assert diagonal_commutator_norm(a, g, [covariance(0.0, 1.0)]) == [0.0]
    assert diagonal_commutator_norm(a, np.full(16, 3.0), [charge]) == [0.0]
    assert diagonal_commutator_norm(a, g, []) == []
    assert diagonal_commutator_norm(XorOp(16), g, [charge, covariance(1.0, 1.0)]) == [0.0, 0.0]
    with pytest.raises(ValueError, match="dimension mismatch"):
        diagonal_commutator_norm(a, g[:-1], [charge])
    with pytest.raises(ValueError, match=re.escape("(32, 16)")):  # a row stack is not an operator
        xor_of(vstack([to_csr(a), to_csr(a)], format="csr"))


def test_diagonal_commutator_norm_reads_unsorted_rows():
    # entries given with each row in reverse column order make the same operator and the same norm
    rng = np.random.default_rng(7)
    a = random_sparse(16, rng, density=0.4, real=True)
    g = rng.integers(-3, 4, size=16).astype(np.float64)
    expected = dense_norm(dense_diagonal_commutator(a, g))
    order = np.concatenate([np.arange(lo, hi)[::-1] for lo, hi in zip(a.indptr[:-1], a.indptr[1:])])
    rows = np.repeat(np.arange(16), np.diff(a.indptr))
    flipped = XorOp.from_entries(rows[order], a.indices[order], a.data[order], a.shape)
    assert np.array_equal(dense(flipped), a.toarray())
    [norm] = diagonal_commutator_norm(flipped, g, [charge])
    assert abs(norm - expected) <= 1e-12 * expected
    assert diagonal_commutator_norm(xor_of(a), g, [charge]) == [norm]


def test_evolve_state_identity_and_zero():
    v = vacuum_state(2)
    zero = 0.0 * identity_op(space_dim(2))
    assert np.array_equal(evolve_state(zero, v), v)


def test_evolve_state_matches_dense_and_preserves_norm():
    rng = np.random.default_rng(4)
    dim = space_dim(2)
    k = 1j * random_selfadjoint(dim, rng, scale=0.8)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    w = evolve_state(k, v)
    assert np.linalg.norm(w - dense_evolution(k, v)) < 1e-10
    assert abs(np.linalg.norm(w) - 1.0) < 1e-11


def test_evolve_state_large_norm():
    # norm 1500: far beyond the reach of a plain Taylor series in double precision
    e0 = np.array([1.0, 0, 0, 0], dtype=complex)
    w = evolve_state(1500j * to_csr(identity_op(4)), e0)
    assert np.max(np.abs(w - np.exp(1500j) * e0)) <= 1e-12


@pytest.mark.parametrize("instance", ["two_mode", "three_mode"])
def test_real_conjugation_and_evolution_match_dense_exponentials(instance, request):
    mt, kernel = request.getfixturevalue(instance)
    rng = np.random.default_rng(6)
    bundle = OperatorBundle(mt, kernel)
    a = bundle.H + ladder_matrix(1, mt.n_modes)
    v = rng.standard_normal(mt.dim)
    v /= np.linalg.norm(v)
    # a real antisymmetric K keeps everything real; K = iG is the number-phase rotation
    for k in (random_antisymmetric(mt.dim, rng, scale=0.3), 1j * to_csr(bundle.G)):
        for alpha in (0.3, -1.0):
            series = conjugate_series(a, k, alpha, tol=1e-14)
            assert series.dtype == np.result_type(a.dtype, k.dtype)
            assert np.max(np.abs(series.toarray() - dense_conjugation(a, k, alpha))) <= 1e-12
        w = evolve_state(k, v)
        assert w.dtype == np.result_type(k.dtype, v.dtype)
        assert np.max(np.abs(w - dense_evolution(k, v))) <= 1e-12
    # a selfadjoint generator is the old exp(i alpha B) convention, not an anti-selfadjoint K
    for hermitian in (bundle.G, bundle.H):
        with pytest.raises(ValueError):
            conjugate_series(a, hermitian, 1.0)
        with pytest.raises(ValueError):
            evolve_state(hermitian, v)


def test_expectation_basics():
    m = 2
    vac = vacuum_state(m)
    ident = identity_op(space_dim(m))
    assert type(expectation(vac, ident, vac)) is float and expectation(vac, ident, vac) == 1.0
    with pytest.raises(ValueError):
        expectation(vac, ident, vacuum_state(1))


def test_expectation_selfadjoint_real():
    rng = np.random.default_rng(5)
    dim = space_dim(2)
    s = random_sparse(dim, rng, real=True)
    a = xor_of(s + s.T)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    # (v, A v) as a float, bit for bit the scipy product
    assert expectation(v, a, v) == float(np.vdot(v, (s + s.T) @ v))
