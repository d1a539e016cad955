import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_array, diags_array, vstack

from bcslab import fock
from bcslab.errors import ResourceLimitError
from bcslab.fock import (
    adjoint,
    anticommutator_check,
    basis_state,
    car_deviation,
    commutator,
    covariance_deviation,
    diagonal_conjugate,
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
    apply_annihilate,
    apply_create,
    conjugate_series,
    dense_conjugation,
    dense_evolution,
    evolve_state,
    random_antisymmetric,
    random_selfadjoint,
    ladders_of,
    random_sparse,
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
        c = ladder_matrix(j, m).toarray()
        for bits in range(space_dim(m)):
            expected = np.zeros(space_dim(m))
            hit = apply_annihilate(j, bits, 2 * m)
            if hit is not None:
                expected[hit[1]] = hit[0]
            assert np.array_equal(c[:, bits], expected)


def test_ladder_matrix_single_mode_by_hand():
    # dim 4, basis |n0,n1> = bits; C_0 sends bits {1,3} to {0,2} with sign +1
    c0 = ladder_matrix(0, 1).toarray()
    expected = np.zeros((4, 4))
    expected[0b00, 0b01] = 1.0
    expected[0b10, 0b11] = 1.0
    assert np.array_equal(c0, expected)


def test_ladder_nilpotent():
    for m, j in [(1, 0), (2, 3), (3, 2)]:
        c = ladder_matrix(j, m)
        assert op_norm_inf(c @ c) == 0.0
        cdag = adjoint(c)
        assert op_norm_inf(cdag @ cdag) == 0.0


def test_ladder_nonzero_count():
    assert ladder_matrix(3, 2).nnz == 8  # 2^(2M-1) at M=2
    for m in (1, 2, 3):
        for j in range(2 * m):
            assert ladder_matrix(j, m).nnz == space_dim(m) // 2


def test_ladder_entries_are_signs():
    c = ladder_matrix(2, 2)
    assert c.dtype == np.float64
    assert set(np.unique(c.data)) <= {-1.0, 1.0}


def test_adjoint_involution():
    c = ladder_matrix(1, 2)
    assert op_norm_inf(adjoint(adjoint(c)) - c) == 0.0
    rng = np.random.default_rng(3)
    for real in (True, False):
        a = random_sparse(16, rng, real=real)
        adj = adjoint(a)
        assert adj.format == "csr" and adj.dtype == a.dtype
        assert np.array_equal(adj.toarray(), a.toarray().conj().T)


def _unsorted(a):
    """a with the entries of every row stored in reverse order."""
    data, indices = a.data.copy(), a.indices.copy()
    for lo, hi in zip(a.indptr[:-1], a.indptr[1:]):
        data[lo:hi], indices[lo:hi] = data[lo:hi][::-1], indices[lo:hi][::-1]
    return csr_array((data, indices, a.indptr.copy()), shape=a.shape)


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("kind", ["sorted", "unsorted", "empty", "rectangular"])
def test_adjoint_keeps_the_arrays_of_the_transpose_conversion(kind, real):
    # the conversion route a* = csr_array(conj(a).T) is the reference, array for array
    rng = np.random.default_rng(7)
    if kind == "empty":
        a = csr_array((5, 7), dtype=np.float64 if real else np.complex128)
    elif kind == "rectangular":
        a = csr_array(random_sparse(12, rng, density=0.3, real=real)[:6, :11])
    else:
        a = random_sparse(16, rng, density=0.3, real=real)
    if kind == "unsorted":
        a = _unsorted(a)
        assert not a.has_sorted_indices
    assert a.indices.dtype == np.int32
    adj = adjoint(a)
    ref = csr_array(a.conj().T if not real else a.T)
    assert adj.format == "csr" and adj.shape == (a.shape[1], a.shape[0]) and adj.dtype == a.dtype
    for name in ("data", "indices", "indptr"):
        got, want = getattr(adj, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert adj.indices.dtype == adj.indptr.dtype == np.int32
    assert np.array_equal(adj.toarray(), a.toarray().conj().T)


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


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_car_exact(m):
    assert anticommutator_check(ladders_of(m)) == 0.0


@pytest.mark.parametrize("j", range(4))
def test_car_deviation_detects_one_flipped_sign(j):
    # {a*, a*} is the adjoint of {a, a}; the families that remain still see one wrong sign
    ann = [ladder_matrix(i, 2) for i in range(4)]
    assert car_deviation(ann) == 0.0
    broken = ann[j].copy()
    broken.data[0] = -broken.data[0]
    ann[j] = broken
    assert car_deviation(ann) > 0.0


def _car_deviation_full_loop(ann):
    """Literal CAR deviation: every (j, j') of {a_j, a*_j'} - delta I and of {a_j, a_j'}."""
    ident = identity_op(ann[0].shape[0])
    worst = 0.0
    for j, a in enumerate(ann):
        for jp, b in enumerate(ann):
            b_dag = csr_array(b.conj().T)
            mixed = a @ b_dag + b_dag @ a - (ident if j == jp else 0.0 * ident)
            worst = max(worst, op_norm_inf(mixed), op_norm_inf(a @ b + b @ a))
    return worst


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("dim", [16, 64])
def test_car_deviation_matches_full_loop(dim, real):
    rng = np.random.default_rng(dim + real)
    ann = [random_sparse(dim, rng, density=0.1, real=real) for _ in range(4)]
    assert car_deviation(ann) == pytest.approx(_car_deviation_full_loop(ann), rel=1e-14, abs=0.0)


def test_car_deviation_reads_the_mixed_pair_it_does_not_build():
    # a_1 = C_3 + eps P with P = Y (x) 1 on orbital 3, Y = e_2 (e_3 + e_5)^T on orbitals 0..2:
    # Y is odd, so P anticommutes with C_3 and C*_3, and {C_0, P} = P^2 = 0.  The only
    # first-order defect is {a_0, a*_1}, whose two dense columns (2 eps) are the rows of the
    # unbuilt {a_1, a*_0}; its own rows and {a_1, a*_1} - I stay at eps and 2 eps^2.
    eps = 1e-3
    rows = [2, 2, 10, 10]
    cols = [3, 5, 11, 13]
    planted = csr_array((np.full(4, eps), (rows, cols)), shape=(16, 16))
    ann = [ladder_matrix(0, 2), csr_array(ladder_matrix(3, 2) + planted)]
    cre_1 = adjoint(ann[1])
    built = ann[0] @ cre_1 + cre_1 @ ann[0]
    assert op_norm_inf(built) == pytest.approx(eps)
    assert car_deviation(ann) == pytest.approx(2 * eps, rel=1e-14)
    assert car_deviation(ann) == pytest.approx(_car_deviation_full_loop(ann), rel=1e-14)


def _car_deviation_pair_loop(ann):
    """The pairs j <= j' that `car_deviation` builds, one at a time, each read by op_norm_inf."""
    ident = identity_op(ann[0].shape[0])
    worst = 0.0
    for jp, b in enumerate(ann):
        b_dag = adjoint(b)
        for j in range(jp + 1):
            a = ann[j]
            mixed = a @ b_dag + b_dag @ a
            if j == jp:
                mixed = mixed - ident
            worst = max(worst, op_norm_inf(mixed), op_norm_inf(mixed.T), op_norm_inf(a @ b + b @ a))
    return worst


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("dim", [16, 64])
def test_car_deviation_across_stacks_matches_full_loop(dim, real, monkeypatch):
    # one to five operators per stack: at two, the last j' runs three stacks of
    # a_j, and at three the last stack of j' = 3 holds one block; every stacked
    # row and column sum adds in the order of the single pair's, so the
    # deviation equals the pair loop's bit for bit, and each operator is
    # adjointed once per call, as the one creator its j' reads
    rng = np.random.default_rng(dim + real + 10)
    ann = [random_sparse(dim, rng, density=0.3, real=real) for _ in range(5)]
    expected = _car_deviation_pair_loop(ann)
    assert expected == pytest.approx(_car_deviation_full_loop(ann), rel=1e-14, abs=0.0)
    adjointed = []

    def counted(a):
        adjointed.append(a)
        return adjoint(a)

    monkeypatch.setattr(fock, "adjoint", counted)
    for width in (1, 2, 3, 5):
        monkeypatch.setattr(fock, "STACK_ROWS", width * dim)
        adjointed.clear()
        assert car_deviation(ann) == expected, width
        assert [sum(a is b for b in adjointed) for a in ann] == [1] * len(ann), width
        assert len(adjointed) == len(ann), width


@pytest.mark.parametrize("j", range(6))
def test_car_deviation_detects_a_flipped_sign_in_any_stack(j, monkeypatch):
    # two of the six M = 3 ladders per stack, so for j' = 5 the ladders 4 and 5 run in the third stack
    monkeypatch.setattr(fock, "STACK_ROWS", 128)
    ann = [ladder_matrix(i, 3) for i in range(6)]
    assert car_deviation(ann) == 0.0
    broken = ann[j].copy()
    broken.data[-1] = -broken.data[-1]
    ann[j] = broken
    assert car_deviation(ann) > 0.0


@pytest.mark.parametrize("stack_rows", [fock.STACK_ROWS, 128])
def test_car_deviation_reads_a_column_defect_inside_a_stack(stack_rows, monkeypatch):
    # the construction of the test above on M = 3, with P = Y (x) 1 on orbitals 3..5;
    # C_4 and C_5 carry the parity string over orbitals 0..2, so they anticommute with
    # P and P*, and the defect {a_0, a*_3} is the first block of the j' = 3 stack of
    # four blocks (or of two, at two operators per stack): only its column sums reach 2 eps
    monkeypatch.setattr(fock, "STACK_ROWS", stack_rows)
    eps = 1e-3
    rows = [2 + 8 * s for s in range(8) for _ in range(2)]
    cols = [c + 8 * s for s in range(8) for c in (3, 5)]
    planted = csr_array((np.full(16, eps), (rows, cols)), shape=(64, 64))
    ann = [ladder_matrix(0, 3), ladder_matrix(4, 3), ladder_matrix(5, 3), csr_array(ladder_matrix(3, 3) + planted)]
    cre_3 = adjoint(ann[3])
    assert op_norm_inf(ann[0] @ cre_3 + cre_3 @ ann[0]) == pytest.approx(eps)
    assert car_deviation(ann) == pytest.approx(2 * eps, rel=1e-14)
    assert car_deviation(ann) == pytest.approx(_car_deviation_full_loop(ann), rel=1e-14)


def test_vacuum_annihilation_and_top_state():
    for m in (1, 2, 3):
        vac = vacuum_state(m)
        top = basis_state(space_dim(m) - 1, m)
        for j in range(2 * m):
            c = ladder_matrix(j, m)
            assert np.all(c @ vac == 0)
            assert np.all(adjoint(c) @ top == 0)


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
        n_j = adjoint(c) @ c
        total = n_j if total is None else total + n_j
    diag = total.toarray().diagonal().real
    expected = [bin(bits).count("1") for bits in range(space_dim(m))]
    assert np.array_equal(diag, expected)
    offdiag = total.toarray() - np.diag(diag)
    assert np.all(offdiag == 0)


# ---------------------------------------------------------------------------
# the series and Taylor oracles of conftest, which the sector-block
# exponential of `analysis` is tested against


def test_conjugate_series_alpha_zero_exact():
    rng = np.random.default_rng(0)
    a = random_sparse(16, rng)
    k = random_antisymmetric(16, rng)
    out = conjugate_series(a, k, 0.0, tol=1e-12)
    assert op_norm_inf(out - a) == 0.0


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


@pytest.mark.parametrize("instance", ["two_mode", "three_mode"])
def test_diagonal_conjugate_matches_series_by_number_operator(instance, request):
    mt, kernel = request.getfixturevalue(instance)
    bundle = OperatorBundle(mt, kernel)
    big_g = bundle.G
    g = big_g.diagonal()
    ops = [ladder_matrix(j, mt.n_modes) for j in range(mt.n_orbitals)] + [bundle.H]
    for alpha in (0.3, 1.0, math.pi):
        for a in ops:
            series = conjugate_series(a, 1j * big_g, alpha, tol=1e-12)
            assert op_norm_inf(diagonal_conjugate(a, g, alpha) - series) <= 1e-12


def test_diagonal_conjugate_matches_dense_exponentials():
    rng = np.random.default_rng(4)
    for dim in (4, 16, 64):
        a = random_sparse(dim, rng)
        g = rng.integers(-3, 4, size=dim).astype(np.float64)
        for alpha in (0.3, 1.0, math.pi):
            oracle = dense_conjugation(a, 1j * diags_array(g), alpha)
            assert np.max(np.abs(diagonal_conjugate(a, g, alpha).toarray() - oracle)) <= 1e-12


def test_diagonal_conjugate_alpha_zero_exact():
    rng = np.random.default_rng(5)
    a = random_sparse(16, rng)
    g = rng.integers(0, 5, size=16).astype(np.float64)
    assert np.array_equal(diagonal_conjugate(a, g, 0.0).toarray(), a.toarray())
    with pytest.raises(ValueError):
        diagonal_conjugate(a, g[:-1], 1.0)
    with pytest.raises(ValueError):  # a row stack needs whole blocks
        diagonal_conjugate(vstack([a, a[:8]], format="csr"), g, 1.0)


@pytest.mark.parametrize("stack_rows", [fock.STACK_ROWS, 32])
def test_covariance_deviation_equals_the_single_operator_route(stack_rows, monkeypatch):
    # at 32 rows two of the dim-16 operators share a stack, at the shipped width all five
    monkeypatch.setattr(fock, "STACK_ROWS", stack_rows)
    rng = np.random.default_rng(8)
    dim = 16
    # rising norms, so each operator sets the deviation of every prefix that ends with it
    ops = [10.0**i * random_sparse(dim, rng, density=0.3, real=True) for i in range(5)]
    g = rng.integers(-3, 4, size=dim).astype(np.float64)
    for alpha in (0.3, 1.0, math.pi):
        phase = np.exp(1j * alpha)
        singles = [diagonal_conjugate(a, g, alpha) for a in ops]
        # each block of a conjugated stack is the conjugation of its operator alone
        stacked = diagonal_conjugate(vstack(ops, format="csr"), g, alpha)
        for b, single in enumerate(singles):
            assert np.array_equal(stacked[b * dim : (b + 1) * dim].toarray(), single.toarray())
        devs = [op_norm_inf(single - phase * a) for single, a in zip(singles, ops)]
        assert all(d > 0.0 for d in devs)
        for i in range(len(ops)):
            assert covariance_deviation(ops[: i + 1], g, alpha, phase) == max(devs[: i + 1])


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
    w = evolve_state(1500j * identity_op(4), e0)
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
    for k in (random_antisymmetric(mt.dim, rng, scale=0.3), 1j * bundle.G):
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
    assert expectation(vac, ident, vac) == 1.0 + 0j
    with pytest.raises(ValueError):
        expectation(vac, ident, vacuum_state(1))


def test_expectation_selfadjoint_real():
    rng = np.random.default_rng(5)
    dim = space_dim(2)
    a = random_selfadjoint(dim, rng)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    assert abs(expectation(v, a, v).imag) < 1e-12
