import numpy as np
import pytest

from bcslab.errors import ValidationError
from bcslab.fock import adjoint, expectation, ladder_matrix, op_norm_inf, vacuum_state
from bcslab.gapsolve import GapTable, correction_factor, dk_weights, solve_gap
from bcslab.hamiltonian import OperatorBundle, build_GB, build_HM, build_Hprime
from bcslab.model import Kernel, explicit_modes
from bcslab.sectors import PairSectors
from bcslab.states import (
    CorrectionState,
    bcs_state,
    correction_state,
    fermi_vacuum,
    normalized_psi,
    pair_coefficients,
    quasi_ops,
)

from conftest import (
    angles_from_theta,
    anticommutator,
    bundle_of,
    correction_state_literal,
    vacuum_exponential,
)


# ---------------------------------------------------------------------------
# Fermi vacuum


def test_fermi_vacuum_empty_sea(two_mode):
    mt, kernel = two_mode  # xi = 1.6 > 0 empties the sea
    assert np.array_equal(fermi_vacuum(OperatorBundle(mt, kernel)), vacuum_state(2))


def test_fermi_vacuum_self_paired_fills_both_spins():
    mt = explicit_modes([(0, 0, 0)], mu=1.0)  # xi = -1
    ops = bundle_of(mt)
    psi_f = fermi_vacuum(ops)
    expected = np.zeros(4, dtype=complex)
    expected[0b11] = 1.0  # both spin-orbitals of the pair, sign +1
    assert np.array_equal(psi_f, expected)
    assert expectation(psi_f, ops.G, psi_f) == 2.0 + 0j


def test_fermi_vacuum_negative_pair_fills_all_four():
    # xi = 0 fills its pair through the E = 0 convention (theta = pi/2)
    for xi in ([-0.5, -0.5], [0.0, 0.0]):
        mt = explicit_modes([(1, 0, 0), (-1, 0, 0)], xi_override=xi)
        ops = bundle_of(mt)
        psi_f = fermi_vacuum(ops)
        assert abs(psi_f[0b1111]) == 1.0
        assert np.linalg.norm(psi_f) == 1.0
        assert expectation(psi_f, ops.G, psi_f) == 4.0 + 0j


# ---------------------------------------------------------------------------
# paired product state


def test_bcs_state_zero_angles_is_vacuum(two_mode):
    mt, kernel = two_mode
    ops = OperatorBundle(mt, kernel)
    assert np.array_equal(bcs_state(ops, GapTable.from_delta(mt, [0.0, 0.0])), vacuum_state(2))
    # exponential route: G_B vanishes, so exp(iG_B)|0> is |0> exactly
    assert np.array_equal(vacuum_exponential(ops, GapTable.from_delta(mt, [0.0, 0.0])), vacuum_state(2))


def test_bcs_state_gapless_limit_is_fermi_vacuum():
    # mixed-sign xi: filled modes get theta = pi/2, empty ones theta = 0
    mt = explicit_modes([(0, 0, 0), (1, 0, 0), (-1, 0, 0)], mu=0.5)  # xi = [-0.5, 0.5, 0.5]
    expected = np.zeros(mt.dim, dtype=complex)
    expected[0b000011] = 1.0  # both spin-orbitals of k = 0, sign +1
    ops = bundle_of(mt)
    assert np.array_equal(bcs_state(ops, GapTable.from_delta(mt, np.zeros(3))), expected)
    assert np.array_equal(fermi_vacuum(ops), expected)


def test_bcs_pair_expectation(two_mode):
    mt, kernel = two_mode
    ops = OperatorBundle(mt, kernel)
    angles = GapTable.from_delta(mt, [1.2, 1.2])
    psi_b = bcs_state(ops, angles)
    assert abs(np.linalg.norm(psi_b) - 1.0) <= 1e-12
    for b in ops.B:
        val = expectation(psi_b, b, psi_b)
        assert val == pytest.approx(0.3, abs=1e-14)  # half sin 2theta
        assert expectation(psi_b, adjoint(b), psi_b) == pytest.approx(0.3, abs=1e-14)


def test_product_matches_exponential_pair_instance(two_mode):
    mt, kernel = two_mode
    ops = OperatorBundle(mt, kernel)
    angles = GapTable.from_delta(mt, [1.2, 1.2])
    exponential = vacuum_exponential(ops, angles)
    assert np.linalg.norm(bcs_state(ops, angles) - exponential) <= 1e-10


def test_product_matches_exponential_random_angles():
    rng = np.random.default_rng(17)
    mt = explicit_modes([(0, 0, 0), (1, 0, 0), (-1, 0, 0)])
    ops = bundle_of(mt)
    for _ in range(10):
        t0, t1 = rng.uniform(0.0, 0.5 * np.pi, size=2)
        angles = angles_from_theta(mt, [t0, t1, t1])
        exponential = vacuum_exponential(ops, angles)
        assert np.linalg.norm(bcs_state(ops, angles) - exponential) <= 1e-10


# ---------------------------------------------------------------------------
# quasiparticle operators


def test_quasi_ops_zero_angle_are_bare(two_mode):
    mt, kernel = two_mode
    q = quasi_ops(OperatorBundle(mt, kernel), GapTable.from_delta(mt, [0.0, 0.0]))
    for i in range(2):
        assert op_norm_inf(q[mt.orb_up(i)] - ladder_matrix(mt.orb_up(i), 2)) == 0.0
        assert op_norm_inf(q[mt.orb_dn(i)] - ladder_matrix(mt.orb_dn(i), 2)) == 0.0


def test_quasi_ops_half_pi_is_particle_hole():
    mt = explicit_modes([(1, 0, 0), (-1, 0, 0)], xi_override=[-1.0, -1.0])
    q = quasi_ops(bundle_of(mt), GapTable.from_delta(mt, [0.0, 0.0]))  # theta = pi/2 from xi < 0
    for i in range(2):
        cre_dn_partner = adjoint(ladder_matrix(mt.orb_dn(mt.pair[i]), 2))
        assert op_norm_inf(q[mt.orb_up(i)] + cre_dn_partner) == 0.0


def test_quasi_ops_annihilate_bcs(two_mode):
    mt, kernel = two_mode
    ops = OperatorBundle(mt, kernel)
    angles = GapTable.from_delta(mt, [1.2, 1.2])
    psi_b = bcs_state(ops, angles)
    for g in quasi_ops(ops, angles):
        assert np.linalg.norm(g @ psi_b) <= 1e-10


def test_quasi_ops_car(two_mode):
    mt, kernel = two_mode
    gammas = quasi_ops(OperatorBundle(mt, kernel), GapTable.from_delta(mt, [1.2, 1.2]))
    from bcslab.fock import identity_op

    ident = identity_op(mt.dim)
    for a in range(4):
        for b in range(4):
            mixed = anticommutator(gammas[a], adjoint(gammas[b]))
            if a == b:
                mixed = mixed - ident
            assert op_norm_inf(mixed) <= 1e-12
            assert op_norm_inf(anticommutator(gammas[a], gammas[b])) <= 1e-12


def test_quasi_inverse_relations(two_mode):
    # C_{k,up} = cos gamma_{k,up} + sin gamma*_{-k,dn};
    # C_{-k,dn} = -sin gamma*_{k,up} + cos gamma_{-k,dn}
    mt, kernel = two_mode
    angles = GapTable.from_delta(mt, [1.2, 1.2])
    q = quasi_ops(OperatorBundle(mt, kernel), angles)
    for i in range(2):
        c, s = angles.cos_t[i], angles.sin_t[i]
        bare_up = ladder_matrix(mt.orb_up(i), 2)
        bare_dn_partner = ladder_matrix(mt.orb_dn(mt.pair[i]), 2)
        gamma_up = q[mt.orb_up(i)]
        gamma_dn_partner = q[mt.orb_dn(mt.pair[i])]
        assert op_norm_inf(bare_up - (c * gamma_up + s * adjoint(gamma_dn_partner))) <= 1e-14
        assert op_norm_inf(
            bare_dn_partner - (-s * adjoint(gamma_up) + c * gamma_dn_partner)
        ) <= 1e-14


def test_quasi_ops_self_paired_mode():
    mt = explicit_modes([(0, 0, 0)], mu=0.3)
    angles = GapTable.from_delta(mt, [0.9])
    ops = bundle_of(mt)
    q = quasi_ops(ops, angles)
    psi_b = bcs_state(ops, angles)
    for g in q:
        assert np.linalg.norm(g @ psi_b) <= 1e-12


# ---------------------------------------------------------------------------
# correction vector and corrected state


def test_correction_zero_interaction(two_mode):
    mt, _ = two_mode
    angles = GapTable.from_delta(mt, [1.2, 1.2])
    ops = bundle_of(mt)
    psi_b = bcs_state(ops, angles)
    corr = correction_state(mt, Kernel(u=np.zeros((2, 2))), angles, quasi_ops(ops, angles), psi_b)
    assert np.all(corr.phi == 0)
    assert corr.overlap == 0.0


def test_correction_pair_instance_values(two_mode):
    mt, kernel = two_mode
    angles = GapTable.from_delta(mt, [1.2, 1.2])
    ops = OperatorBundle(mt, kernel)
    psi_b = bcs_state(ops, angles)
    corr = correction_state(mt, kernel, angles, quasi_ops(ops, angles), psi_b)
    # c = U (C^2 S'^2 + C'^2 S^2)/(E+E') = -4 * 0.18 / 4 = -0.18
    coeffs = pair_coefficients(mt, kernel, angles)
    assert coeffs[0, 1] == pytest.approx(-0.18, abs=1e-15)
    assert coeffs[1, 0] == pytest.approx(-0.18, abs=1e-15)
    assert np.all(np.diag(coeffs) == 0)
    assert corr.overlap == pytest.approx(0.0324, abs=1e-14)
    assert abs(np.vdot(psi_b, corr.phi)) <= 1e-12


def test_correction_matches_literal_double_sum(two_mode):
    mt, kernel = two_mode
    angles = GapTable.from_delta(mt, [1.2, 1.2])
    ops = OperatorBundle(mt, kernel)
    psi_b = bcs_state(ops, angles)
    q = quasi_ops(ops, angles)
    corr = correction_state(mt, kernel, angles, q, psi_b)
    literal = correction_state_literal(mt, kernel, angles, q, psi_b)
    assert np.linalg.norm(corr.phi - literal) <= 1e-14


def test_correction_coefficient_symmetry(three_mode):
    mt, kernel = three_mode
    sol = solve_gap(mt, kernel, tol=1e-12)
    c = pair_coefficients(mt, kernel, sol.delta)
    assert np.array_equal(c, c.T)


def test_overlap_equals_half_dsum(three_mode):
    mt, kernel = three_mode
    sol = solve_gap(mt, kernel, tol=1e-12)
    ops = OperatorBundle(mt, kernel)
    psi_b = bcs_state(ops, sol.delta)
    corr = correction_state(mt, kernel, sol.delta, quasi_ops(ops, sol.delta), psi_b)
    dk, dsum = dk_weights(mt, kernel, sol.delta)
    assert corr.overlap == pytest.approx(0.5 * dsum, abs=1e-10)


def test_normalized_psi_trivial_correction(two_mode):
    mt, kernel = two_mode
    angles = GapTable.from_delta(mt, [1.2, 1.2])
    psi_b = bcs_state(OperatorBundle(mt, kernel), angles)
    corr = CorrectionState(phi=np.zeros(mt.dim, dtype=complex), overlap=0.0)
    assert np.array_equal(normalized_psi(psi_b, corr), psi_b)


def test_normalized_psi_pair_instance(two_mode):
    mt, kernel = two_mode
    angles = GapTable.from_delta(mt, [1.2, 1.2])
    ops = OperatorBundle(mt, kernel)
    psi_b = bcs_state(ops, angles)
    corr = correction_state(mt, kernel, angles, quasi_ops(ops, angles), psi_b)
    psi = normalized_psi(psi_b, corr)
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
    assert np.vdot(psi_b, psi).real == pytest.approx(1.0 / np.sqrt(1.0324), abs=1e-12)


def test_normalized_psi_requires_orthogonality(two_mode):
    mt, kernel = two_mode
    angles = GapTable.from_delta(mt, [1.2, 1.2])
    psi_b = bcs_state(OperatorBundle(mt, kernel), angles)
    fake = CorrectionState(phi=psi_b.copy(), overlap=1.0)
    with pytest.raises(ValidationError):
        normalized_psi(psi_b, fake)


def test_corrected_pair_expectation_identity(two_mode):
    # (Psi, B_k Psi) = 1/2 sin 2theta (1 - 4 D_k / (D + 2))
    mt, kernel = two_mode
    angles = GapTable.from_delta(mt, [1.2, 1.2])
    ops = OperatorBundle(mt, kernel)
    psi_b = bcs_state(ops, angles)
    corr = correction_state(mt, kernel, angles, quasi_ops(ops, angles), psi_b)
    psi = normalized_psi(psi_b, corr)
    dk, dsum = dk_weights(mt, kernel, GapTable.from_delta(mt, np.array([1.2, 1.2])))
    factor = correction_factor(dk, dsum)
    for i in range(2):
        val = expectation(psi, ops.B[i], psi).real
        predicted = 0.5 * angles.sin2t[i] * factor[i]
        assert val == pytest.approx(predicted, abs=1e-12)
        assert val == pytest.approx(0.3 * (1.0 - 0.1296 / 2.0648), abs=1e-12)


def test_corrected_pair_expectation_identity_random(three_mode):
    mt, kernel = three_mode
    rng = np.random.default_rng(5)
    ops = OperatorBundle(mt, kernel)
    for _ in range(5):
        d = rng.uniform(0.1, 2.0, size=2)
        gap = GapTable.from_delta(mt, [d[0], d[1], d[1]])
        psi_b = bcs_state(ops, gap)
        corr = correction_state(mt, kernel, gap, quasi_ops(ops, gap), psi_b)
        psi = normalized_psi(psi_b, corr)
        dk, dsum = dk_weights(mt, kernel, gap)
        factor = correction_factor(dk, dsum)
        for i in range(3):
            val = expectation(psi, ops.B[i], psi).real
            assert val == pytest.approx(0.5 * gap.sin2t[i] * factor[i], abs=1e-10)


# ---------------------------------------------------------------------------
# number field


@pytest.mark.parametrize("instance", ["two_mode", "three_mode"])
def test_fock_algebra_stays_real(instance, request):
    # a silent complex upcast or int64 index anywhere would add to the memory and time of every check
    mt, kernel = request.getfixturevalue(instance)
    sol = solve_gap(mt, kernel, tol=1e-12)
    angles = sol.delta
    bundle = OperatorBundle(mt, kernel)
    psi_b = bcs_state(bundle, angles)
    quasi = quasi_ops(bundle, angles)
    ops = [bundle.H, bundle.G, bundle.T, *bundle.C, *bundle.B, *bundle.h, *bundle.v, *quasi]
    gb = build_GB(bundle, angles)
    ops += [gb, build_HM(bundle, sol.delta, 0.5 * angles.sin2t), build_Hprime(bundle, angles)]
    sectors = PairSectors(mt)
    expk, _ = sectors.exponential(gb)
    states = [psi_b, sectors.column(expk, 0), *expk]
    ops += [adjoint(g) for g in quasi]
    states.append(correction_state(mt, kernel, angles, quasi, psi_b).phi)
    assert [op.dtype for op in ops] == [np.float64] * len(ops)
    assert [v.dtype for v in states] == [np.float64] * len(states)
    # and int32 sparse indices: an int64 ladder index would widen every operator built from it
    ops.append(ladder_matrix(np.int64(1), mt.n_modes))
    assert [(op.indices.dtype, op.indptr.dtype) for op in ops] == [(np.int32, np.int32)] * len(ops)
    with pytest.raises(TypeError):
        ladder_matrix(1.5, mt.n_modes)
