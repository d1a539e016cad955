import math

import numpy as np
import pytest

from bcslab.errors import ValidationError
from bcslab.fock import (
    adjoint,
    commutator,
    conjugate_series,
    expectation,
    identity_op,
    op_norm_inf,
    vacuum_state,
)
from bcslab.gapsolve import AngleTable, GapTable
from bcslab.hamiltonian import (
    OperatorBundle,
    build_G,
    build_GB,
    build_H,
    build_HM,
    build_Hprime,
    pair_annihilator,
    pair_exchange,
    pair_number,
)
from bcslab.model import Kernel, explicit_modes
from bcslab.states import bcs_state, fermi_vacuum


def angles_of(mt, delta):
    return AngleTable.from_delta(mt, GapTable(delta=np.asarray(delta, dtype=float)))


def test_free_hamiltonian_is_diagonal_occupation_sum():
    mt = explicit_modes([(1, 0, 0), (-1, 0, 0)], xi_override=[0.7, 0.7])
    h = build_H(mt, Kernel(u=np.zeros((2, 2)))).toarray()
    assert np.all(h == np.diag(np.diagonal(h)))
    for bits in range(mt.dim):
        occ = sum(0.7 for j in range(4) if (bits >> j) & 1)
        assert h[bits, bits].real == pytest.approx(occ, abs=1e-14)


def test_fermi_vacuum_energy_zero_when_sea_empty(two_mode):
    mt, kernel = two_mode
    h = build_H(mt, kernel)
    psi_f = fermi_vacuum(mt)
    assert expectation(psi_f, h, psi_f) == 0.0


def test_self_paired_origin_ground_energy():
    # single k=0 mode with mu > 0: pair filled, ground energy 2 xi = -2 mu
    mu = 0.8
    mt = explicit_modes([(0, 0, 0)], mu=mu)
    h = build_H(mt, Kernel(u=np.zeros((1, 1)))).toarray()
    eigs = np.linalg.eigvalsh(h)
    assert eigs[0] == pytest.approx(-2.0 * mu, abs=1e-14)


def test_build_h_rejects_bad_kernel(two_mode):
    mt, _ = two_mode
    with pytest.raises(ValidationError):
        build_H(mt, Kernel(u=np.array([[0.0, 2.0], [2.0, 0.0]])))


def test_h_selfadjoint_and_commutes_with_g(two_mode):
    mt, kernel = two_mode
    bundle = OperatorBundle(mt, kernel)
    assert op_norm_inf(bundle.H - adjoint(bundle.H)) == 0.0
    assert op_norm_inf(bundle.G - adjoint(bundle.G)) == 0.0
    assert op_norm_inf(commutator(bundle.G, bundle.H)) <= 1e-12


def test_number_operator_action(two_mode):
    mt, _ = two_mode
    g = build_G(mt)
    vac = vacuum_state(mt.n_modes)
    top = np.zeros(mt.dim, dtype=complex)
    top[-1] = 1.0
    assert np.all(g @ vac == 0)
    assert np.allclose(g @ top, 2 * mt.n_modes * top)


def test_charge_pair_commutator(two_mode):
    # [G, B_k] = -2 B_k as matrices
    mt, _ = two_mode
    g = build_G(mt)
    for i in range(mt.n_modes):
        b = pair_annihilator(mt, i)
        assert op_norm_inf(commutator(g, b) + 2.0 * b) == 0.0


def test_gb_zero_angles(two_mode):
    mt, _ = two_mode
    gb = build_GB(mt, angles_of(mt, [0.0, 0.0]))
    assert op_norm_inf(gb) == 0.0


def test_gb_selfadjoint(two_mode):
    # build_GB is the real K = iG_B; G_B selfadjoint means K* = -K
    mt, _ = two_mode
    gb = build_GB(mt, angles_of(mt, [1.2, 1.2]))
    assert gb.dtype == np.float64
    assert op_norm_inf(gb + adjoint(gb)) <= 1e-12
    assert op_norm_inf(gb) > 0


def test_gb_rejects_asymmetric_angles():
    mt = explicit_modes([(1, 0, 0), (-1, 0, 0)], xi_override=[1.6, 1.6])
    good = angles_of(mt, [1.2, 1.2])
    from dataclasses import replace

    bad = replace(good, theta=np.array([0.1, 0.5]))
    with pytest.raises(ValidationError):
        build_GB(mt, bad)


def test_hm_free_limit(two_mode):
    mt, _ = two_mode
    hm = build_HM(mt, GapTable(delta=np.zeros(2)), np.zeros(2))
    free = build_H(mt, Kernel(u=np.zeros((2, 2))))
    assert op_norm_inf(hm - free) == 0.0


def test_hm_validation(two_mode):
    mt, _ = two_mode
    with pytest.raises(ValidationError):
        build_HM(mt, GapTable(delta=np.array([-0.1, -0.1])), np.zeros(2))
    with pytest.raises(ValidationError):
        build_HM(mt, GapTable(delta=np.array([1.0, 2.0])), np.zeros(2))
    with pytest.raises(ValidationError):
        build_HM(mt, GapTable(delta=np.ones(2)), np.zeros(3))


def test_mean_field_split_identity(two_mode):
    # H = H_M + sum U b*_{k'} b_k with b_k = B_k - w_k, at w = half sin 2theta
    mt, kernel = two_mode
    angles = angles_of(mt, [1.2, 1.2])
    w = 0.5 * angles.sin2t
    h = build_H(mt, kernel)
    hm = build_HM(mt, GapTable(delta=angles.delta), w)
    ident = identity_op(mt.dim)
    fluct = None
    for kp in range(mt.n_modes):
        bdag = adjoint(pair_annihilator(mt, kp)) - w[kp] * ident
        for k in range(mt.n_modes):
            u = kernel.u[k, kp]
            if u == 0.0:
                continue
            term = u * (bdag @ (pair_annihilator(mt, k) - w[k] * ident))
            fluct = term if fluct is None else fluct + term
    assert op_norm_inf(h - hm - fluct) <= 1e-10


def test_hprime_zero_interaction(two_mode):
    mt, _ = two_mode
    angles = angles_of(mt, [1.2, 1.2])
    hp = build_Hprime(mt, Kernel(u=np.zeros((2, 2))), angles)
    assert op_norm_inf(hp) == 0.0


def test_hprime_equals_h_minus_hm(two_mode):
    mt, kernel = two_mode
    angles = angles_of(mt, [1.2, 1.2])
    w = 0.5 * angles.sin2t
    h = build_H(mt, kernel)
    hm = build_HM(mt, GapTable(delta=angles.delta), w)
    hp = build_Hprime(mt, kernel, angles)
    assert op_norm_inf(hp - (h - hm)) <= 1e-10


def test_hprime_annihilates_bcs_in_expectation(two_mode):
    mt, kernel = two_mode
    angles = angles_of(mt, [1.2, 1.2])
    psi_b = bcs_state(mt, angles)
    hp = build_Hprime(mt, kernel, angles)
    assert abs(expectation(psi_b, hp, psi_b)) <= 1e-12


def test_pairing_commutator_identities():
    # [h_k, iG_B] = 2 theta_k v_k and [v_k, iG_B] = -2 theta_k (h_k - 1), with build_GB = iG_B
    rng = np.random.default_rng(21)
    mt = explicit_modes([(0, 0, 0), (1, 0, 0), (-1, 0, 0)], mu=0.4)
    for _ in range(3):
        delta = np.repeat(rng.uniform(0.0, 2.0), 3)
        delta = np.array([delta[0], delta[1], delta[1]])
        angles = angles_of(mt, delta)
        gb = build_GB(mt, angles)
        ident = identity_op(mt.dim)
        for i in range(mt.n_modes):
            h_i = pair_number(mt, i)
            v_i = pair_exchange(mt, i)
            t = angles.theta[i]
            assert op_norm_inf(commutator(h_i, gb) - 2.0 * t * v_i) <= 1e-12
            assert op_norm_inf(commutator(v_i, gb) + 2.0 * t * (h_i - ident)) <= 1e-12


def test_meanfield_conjugation_identity(two_mode):
    # exp(-iG_B)(xi h - Delta v)exp(iG_B) = exp(-K)(...)exp(K) in terms of h, v and a constant
    mt, _ = two_mode
    angles = angles_of(mt, [1.2, 1.2])
    gb = build_GB(mt, angles)
    ident = identity_op(mt.dim)
    for i in range(mt.n_modes):
        xi_i, d_i = mt.xi[i], angles.delta[i]
        lhs = conjugate_series(
            xi_i * pair_number(mt, i) - d_i * pair_exchange(mt, i), gb, 1.0, tol=1e-12
        )
        rhs = (
            (xi_i * angles.cos2t[i] + d_i * angles.sin2t[i]) * pair_number(mt, i)
            + (xi_i * angles.sin2t[i] - d_i * angles.cos2t[i]) * pair_exchange(mt, i)
            + (2.0 * xi_i * angles.sin_t[i] ** 2 - d_i * angles.sin2t[i]) * ident
        )
        assert op_norm_inf(lhs - rhs) <= 1e-9


def test_phase_covariance(two_mode):
    mt, kernel = two_mode
    bundle = OperatorBundle(mt, kernel)
    from bcslab.fock import ladder_matrix

    # exp(-iaG) A exp(iaG) by the series in the anti-selfadjoint K = iG
    igen = 1j * bundle.G
    for alpha in (0.3, 1.0, math.pi):
        for j in range(mt.n_orbitals):
            c = ladder_matrix(j, mt.n_modes)
            rotated = conjugate_series(c, igen, alpha, tol=1e-12)
            assert op_norm_inf(rotated - np.exp(1j * alpha) * c) <= 1e-9
            rotated_dag = conjugate_series(adjoint(c), igen, alpha, tol=1e-12)
            assert op_norm_inf(rotated_dag - np.exp(-1j * alpha) * adjoint(c)) <= 1e-9
        assert op_norm_inf(conjugate_series(bundle.H, igen, alpha, tol=1e-12) - bundle.H) <= 1e-9
