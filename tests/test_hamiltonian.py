import math
from pathlib import Path

import numpy as np
import pytest

from bcslab.errors import ValidationError
from bcslab.fock import (
    commutator,
    expectation,
    identity_op,
    op_norm_inf,
    vacuum_state,
)
from bcslab.gapsolve import GapTable, solve_gap
from bcslab.cli import load_config
from bcslab.hamiltonian import OperatorBundle, build_GB, build_HM, build_Hprime, couplings
from bcslab.model import Kernel, explicit_modes, permuted_instance
from bcslab.states import bcs_state, fermi_vacuum

from conftest import (
    assert_same_entries,
    bundle_of,
    conjugate_series,
    csr_norm,
    dense,
    literal_operators,
    same_terms,
    to_csr,
)

GOLDEN = Path(__file__).parent / "golden"


def test_free_hamiltonian_is_diagonal_occupation_sum():
    mt = explicit_modes([(1, 0, 0), (-1, 0, 0)], xi_override=[0.7, 0.7])
    h = dense(bundle_of(mt).H)
    assert np.all(h == np.diag(np.diagonal(h)))
    for bits in range(mt.dim):
        occ = sum(0.7 for j in range(4) if (bits >> j) & 1)
        assert h[bits, bits].real == pytest.approx(occ, abs=1e-14)


def test_fermi_vacuum_energy_zero_when_sea_empty(two_mode):
    mt, kernel = two_mode
    ops = OperatorBundle(mt, kernel)
    psi_f = fermi_vacuum(ops)
    assert expectation(psi_f, ops.H, psi_f) == 0.0


def test_self_paired_origin_ground_energy():
    # single k=0 mode with mu > 0: pair filled, ground energy 2 xi = -2 mu
    mu = 0.8
    mt = explicit_modes([(0, 0, 0)], mu=mu)
    h = dense(bundle_of(mt).H)
    eigs = np.linalg.eigvalsh(h)
    assert eigs[0] == pytest.approx(-2.0 * mu, abs=1e-14)


def test_build_h_rejects_bad_kernel(two_mode):
    mt, _ = two_mode
    with pytest.raises(ValidationError):
        OperatorBundle(mt, Kernel(u=np.array([[0.0, 2.0], [2.0, 0.0]])))


def test_h_selfadjoint_and_commutes_with_g(two_mode):
    mt, kernel = two_mode
    bundle = OperatorBundle(mt, kernel)
    assert op_norm_inf(bundle.H - bundle.H.adjoint()) == 0.0
    assert op_norm_inf(bundle.G - bundle.G.adjoint()) == 0.0
    assert op_norm_inf(commutator(bundle.G, bundle.H)) <= 1e-12


def test_number_operator_action(two_mode):
    mt, kernel = two_mode
    g = OperatorBundle(mt, kernel).G
    vac = vacuum_state(mt.n_modes)
    top = np.zeros(mt.dim)
    top[-1] = 1.0
    assert np.all(g @ vac == 0)
    assert np.allclose(g @ top, 2 * mt.n_modes * top)


def test_charge_pair_commutator(two_mode):
    # [G, B_k] = -2 B_k as matrices
    mt, kernel = two_mode
    ops = OperatorBundle(mt, kernel)
    for b in ops.B:
        assert op_norm_inf(commutator(ops.G, b) + 2.0 * b) == 0.0


def test_gb_zero_angles(two_mode):
    mt, kernel = two_mode
    gb = build_GB(OperatorBundle(mt, kernel), GapTable.from_delta(mt, [0.0, 0.0]))
    assert op_norm_inf(gb) == 0.0


def test_gb_selfadjoint(two_mode):
    # build_GB is the real K = iG_B; G_B selfadjoint means K* = -K
    mt, kernel = two_mode
    gb = build_GB(OperatorBundle(mt, kernel), GapTable.from_delta(mt, [1.2, 1.2]))
    assert gb.dtype == np.float64
    assert op_norm_inf(gb + gb.adjoint()) <= 1e-12
    assert op_norm_inf(gb) > 0


def test_gb_rejects_asymmetric_angles():
    mt = explicit_modes([(1, 0, 0), (-1, 0, 0)], xi_override=[1.6, 1.6])
    good = GapTable.from_delta(mt, [1.2, 1.2])
    from dataclasses import replace

    bad = replace(good, theta=np.array([0.1, 0.5]))
    with pytest.raises(ValidationError):
        build_GB(bundle_of(mt), bad)


def test_hm_free_limit(two_mode):
    mt, kernel = two_mode
    hm = build_HM(OperatorBundle(mt, kernel), GapTable.from_delta(mt, np.zeros(2)), np.zeros(2))
    free = bundle_of(mt).H
    assert op_norm_inf(hm - free) == 0.0


def test_hm_validation(two_mode):
    mt, kernel = two_mode
    ops = OperatorBundle(mt, kernel)
    three = explicit_modes([(0, 0, 0), (1, 0, 0), (-1, 0, 0)])
    with pytest.raises(ValidationError, match="does not match"):
        build_HM(ops, GapTable.from_delta(three, np.ones(3)), np.zeros(2))
    with pytest.raises(ValidationError, match="expectation table"):
        build_HM(ops, GapTable.from_delta(mt, np.ones(2)), np.zeros(3))


def test_mean_field_split_identity(two_mode):
    # H = H_M + sum U b*_{k'} b_k with b_k = B_k - w_k, at w = half sin 2theta
    mt, kernel = two_mode
    angles = GapTable.from_delta(mt, [1.2, 1.2])
    w = 0.5 * angles.sin2t
    ops = OperatorBundle(mt, kernel)
    hm = build_HM(ops, angles, w)
    ident = identity_op(mt.dim)
    fluct = None
    for kp in range(mt.n_modes):
        bdag = ops.B[kp].adjoint() - w[kp] * ident
        for k in range(mt.n_modes):
            u = kernel.u[k, kp]
            if u == 0.0:
                continue
            term = u * (bdag @ (ops.B[k] - w[k] * ident))
            fluct = term if fluct is None else fluct + term
    assert op_norm_inf(ops.H - hm - fluct) <= 1e-10


def test_hprime_zero_interaction(two_mode):
    mt, _ = two_mode
    angles = GapTable.from_delta(mt, [1.2, 1.2])
    hp = build_Hprime(bundle_of(mt), angles)
    assert op_norm_inf(hp) == 0.0


def test_hprime_equals_h_minus_hm(two_mode):
    mt, kernel = two_mode
    angles = GapTable.from_delta(mt, [1.2, 1.2])
    w = 0.5 * angles.sin2t
    ops = OperatorBundle(mt, kernel)
    hm = build_HM(ops, angles, w)
    hp = build_Hprime(ops, angles)
    assert op_norm_inf(hp - (ops.H - hm)) <= 1e-10


def test_hprime_annihilates_bcs_in_expectation(two_mode):
    mt, kernel = two_mode
    angles = GapTable.from_delta(mt, [1.2, 1.2])
    ops = OperatorBundle(mt, kernel)
    psi_b = bcs_state(ops, angles)
    hp = build_Hprime(ops, angles)
    assert abs(expectation(psi_b, hp, psi_b)) <= 1e-12


def test_pairing_commutator_identities():
    # [h_k, iG_B] = 2 theta_k v_k and [v_k, iG_B] = -2 theta_k (h_k - 1), with build_GB = iG_B
    rng = np.random.default_rng(21)
    mt = explicit_modes([(0, 0, 0), (1, 0, 0), (-1, 0, 0)], mu=0.4)
    ops = bundle_of(mt)
    for _ in range(3):
        delta = np.repeat(rng.uniform(0.0, 2.0), 3)
        delta = np.array([delta[0], delta[1], delta[1]])
        angles = GapTable.from_delta(mt, delta)
        gb = build_GB(ops, angles)
        ident = identity_op(mt.dim)
        for i in range(mt.n_modes):
            h_i = ops.h[i]
            v_i = ops.v[i]
            t = angles.theta[i]
            assert op_norm_inf(commutator(h_i, gb) - 2.0 * t * v_i) <= 1e-12
            assert op_norm_inf(commutator(v_i, gb) + 2.0 * t * (h_i - ident)) <= 1e-12


def test_meanfield_conjugation_identity(two_mode):
    # exp(-iG_B)(xi h - Delta v)exp(iG_B) = exp(-K)(...)exp(K) in terms of h, v and a constant
    mt, kernel = two_mode
    ops = OperatorBundle(mt, kernel)
    angles = GapTable.from_delta(mt, [1.2, 1.2])
    gb = build_GB(ops, angles)
    ident = identity_op(mt.dim)
    for i in range(mt.n_modes):
        xi_i, d_i = mt.xi[i], angles.delta[i]
        lhs = conjugate_series(xi_i * ops.h[i] - d_i * ops.v[i], gb, 1.0, tol=1e-12)
        rhs = (
            (xi_i * angles.cos2t[i] + d_i * angles.sin2t[i]) * ops.h[i]
            + (xi_i * angles.sin2t[i] - d_i * angles.cos2t[i]) * ops.v[i]
            + (2.0 * xi_i * angles.sin_t[i] ** 2 - d_i * angles.sin2t[i]) * ident
        )
        assert csr_norm(lhs - to_csr(rhs)) <= 1e-9


def test_phase_covariance(two_mode):
    mt, kernel = two_mode
    bundle = OperatorBundle(mt, kernel)
    from bcslab.fock import ladder_matrix

    # exp(-iaG) A exp(iaG) by the series in the anti-selfadjoint K = iG
    igen = 1j * to_csr(bundle.G)
    for alpha in (0.3, 1.0, math.pi):
        for j in range(mt.n_orbitals):
            c = ladder_matrix(j, mt.n_modes)
            rotated = conjugate_series(c, igen, alpha, tol=1e-12)
            assert csr_norm(rotated - np.exp(1j * alpha) * to_csr(c)) <= 1e-9
            rotated_dag = conjugate_series(c.adjoint(), igen, alpha, tol=1e-12)
            assert csr_norm(rotated_dag - np.exp(-1j * alpha) * to_csr(c.adjoint())) <= 1e-9
        assert csr_norm(conjugate_series(bundle.H, igen, alpha, tol=1e-12) - to_csr(bundle.H)) <= 1e-9


def test_pair_number_by_hand(two_mode):
    # h_k counts the occupied orbitals among (k, up) and (-k, dn): 0, 1 or 2 on each basis state
    mt, kernel = two_mode
    ops = OperatorBundle(mt, kernel)
    for i in range(mt.n_modes):
        h_i = dense(ops.h[i])
        assert np.all(h_i == np.diag(np.diagonal(h_i)))
        for bits in range(mt.dim):
            occ = ((bits >> mt.orb_up(i)) & 1) + ((bits >> mt.orb_dn(mt.pair[i])) & 1)
            assert h_i[bits, bits] == occ


@pytest.mark.parametrize("name", ["pair", "three_mode", "six_mode", "seven_mode", "ac10"])
def test_v_k_is_the_pair_sum_array_for_array(name):
    # build_Hprime reads v_k for B*_k + B_k, so on the goldens the two are one operator, array for array
    cfg = load_config(str(GOLDEN / name / "config.json"))
    ops = OperatorBundle(cfg.mt, cfg.kernel)
    for v, bd, b in zip(ops.v, ops.Bd, ops.B):
        assert same_terms(v, bd + b)


@pytest.mark.parametrize("name", ["three_mode", "ac10"])
def test_pair_operators_on_the_ladders_of_another_table_equal_its_own_bundles(name):
    # ladder_matrix(j, M) ignores the mode table, so a relabelled table given
    # the original bundle's ladders builds the B_k and B*_k of its own bundle
    cfg = load_config(str(GOLDEN / name / "config.json"))
    mt_p, kernel_p = permuted_instance(cfg.mt, cfg.kernel, np.random.default_rng(3).permutation(cfg.mt.n_modes))
    ladders = OperatorBundle(cfg.mt, cfg.kernel).C
    pairs = OperatorBundle(mt_p, kernel_p, ladders)
    own = OperatorBundle(mt_p, kernel_p)
    assert pairs.mt is mt_p and all(a is b for a, b in zip(pairs.C, ladders))
    for key in ("B", "Bd"):
        for a, b in zip(getattr(pairs, key), getattr(own, key), strict=True):
            assert same_terms(a, b), key
    with pytest.raises(ValidationError, match="ladders"):
        OperatorBundle(mt_p, kernel_p, ladders[:-1])
    two = explicit_modes([(1, 0, 0), (-1, 0, 0)])
    with pytest.raises(ValidationError, match="ladders"):
        OperatorBundle(two, Kernel(u=np.array([[0.0, -4.0], [-4.0, 0.0]])), ladders[:4])


def test_bundle_builds_on_first_read_and_again_after_a_release(two_mode):
    mt, kernel = two_mode
    ops = OperatorBundle(mt, kernel)
    assert set(vars(ops)) == {"mt", "kernel"}
    g = ops.G
    # G = sum_k h_k reads the h_k, which read the ladders; nothing else is built
    assert set(vars(ops)) == {"mt", "kernel", "C", "h", "G"}
    h = ops.h
    del ops.G, ops.H  # H was never built: releasing it does nothing
    assert "G" not in vars(ops)
    assert same_terms(ops.G, g) and ops.G is not g and ops.h is h
    with pytest.raises(AttributeError, match="no quantity 'K'"):
        ops.K


@pytest.mark.parametrize("name", ["pair", "three_mode", "seven_mode"])
def test_bundle_matches_literal_operators(name):
    cfg = load_config(str(GOLDEN / name / "config.json"))
    ops = OperatorBundle(cfg.mt, cfg.kernel)
    oracle = literal_operators(cfg.mt, cfg.kernel)
    assert ops.mt is cfg.mt
    assert len(ops.C) == cfg.mt.n_orbitals
    for key in ("B", "Bd", "h", "v"):
        assert len(getattr(ops, key)) == cfg.mt.n_modes
        for a, b in zip(getattr(ops, key), oracle[key]):
            assert_same_entries(a, b)
    for key in ("G", "T", "H", "I"):
        assert_same_entries(getattr(ops, key), oracle[key])


@pytest.mark.parametrize("name", ["pair", "three_mode", "ac10"])
def test_builders_match_literal_operator_sums(name):
    # K = i G_B, H_M and H' by their formulas over the literal scipy operators, summed in the builders' order
    from scipy.sparse import csr_array

    cfg = load_config(str(GOLDEN / name / "config.json"))
    mt, kernel = cfg.mt, cfg.kernel
    ops = OperatorBundle(mt, kernel)
    lit = literal_operators(mt, kernel)
    gap = solve_gap(mt, kernel, tol=1e-12).delta
    w = 0.5 * gap.sin2t
    zero = csr_array((mt.dim, mt.dim))
    k = zero
    for i in range(mt.n_modes):
        if gap.theta[i] != 0.0:
            k = k + gap.theta[i] * (lit["Bd"][i] - lit["B"][i])
    hm = lit["T"]
    for i in range(mt.n_modes):
        if gap.delta[i] != 0.0:
            hm = hm - gap.delta[i] * lit["v"][i]
    hm = hm + float(np.dot(gap.delta, w)) * lit["I"]
    cs = gap.cos_t * gap.sin_t
    hp, const = zero, 0.0
    for kk, kp, u in couplings(kernel):
        hp = hp + u * (lit["Bd"][kp] @ lit["B"][kk])
        hp = hp - (u * cs[kp]) * lit["v"][kk]
        const += u * cs[kk] * cs[kp]
    hp = hp + const * lit["I"]
    assert np.dot(gap.delta, w) != 0.0 and const != 0.0
    assert_same_entries(build_GB(ops, gap), k)
    assert_same_entries(build_HM(ops, gap, w), hm)
    assert_same_entries(build_Hprime(ops, gap), hp)


# modes in +/- pairs (the origin pairs with itself), and the index of the xi draw each mode takes
PAIR_TABLES = [
    ([(1, 0, 0), (-1, 0, 0)], [0, 0]),
    ([(0, 0, 0), (1, 0, 0), (-1, 0, 0)], [0, 1, 1]),
    ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)], [0, 0, 1, 1]),
]


@pytest.mark.parametrize("ks, slots", PAIR_TABLES)
def test_pair_sums_of_h_match_the_orbital_order_oracle(ks, slots):
    # T = sum_k xi_k h_k adds in pair order, the oracle in orbital order: a few ulps of 2 sum|xi| apart
    rng = np.random.default_rng(29)
    for _ in range(10):
        mt = explicit_modes(ks, xi_override=rng.uniform(-2.0, 2.0, max(slots) + 1)[slots])
        ops = bundle_of(mt)
        oracle = literal_operators(mt, ops.kernel)
        assert_same_entries(ops.G, oracle["G"])
        bound = 4 * np.finfo(float).eps * 2 * np.sum(np.abs(mt.xi))
        assert abs(to_csr(ops.T) - oracle["T"]).max() <= bound


def test_couplings_list_the_nonzero_kernel_entries_k_prime_outer():
    u = np.array([[0.0, -1.0, -2.0], [-1.0, 0.0, 0.0], [-2.0, 0.0, 0.0]])
    assert couplings(Kernel(u=u)) == [(1, 0, -1.0), (2, 0, -2.0), (0, 1, -1.0), (0, 2, -2.0)]
    assert couplings(Kernel(u=np.zeros((2, 2)))) == []


def test_kinetic_term_overflow_is_refused_and_the_float_range_still_builds():
    kernel = Kernel(u=np.array([[0.0, -1.0], [-1.0, 0.0]]))
    # 2 sum|xi| = 1.76e308 is finite: the fully occupied state has energy 4 xi, exactly
    t = OperatorBundle(explicit_modes([(1, 0, 0), (-1, 0, 0)], xi_override=[4.4e307] * 2), kernel).T
    vals = t.entries()[2]
    assert np.all(np.isfinite(vals)) and vals.max() == 4 * 4.4e307
    with pytest.raises(ValidationError, match="kinetic term overflows"):
        OperatorBundle(explicit_modes([(1, 0, 0), (-1, 0, 0)], xi_override=[1e308] * 2), kernel)
