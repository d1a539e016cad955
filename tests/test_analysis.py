import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_array

from bcslab.analysis import (
    TOL_LOOSE,
    condensation_energy,
    delta_E_formula,
    ebcs_formula,
    free_fermi_energy,
    hm_spectrum_check,
    lemma_hm_expectation_formula,
    phi_hprime_coupling_formula,
    hprime_bcs_expansion,
    run_verification,
)
from bcslab import fock, hamiltonian, states
from bcslab.cli import load_config
from bcslab.errors import ValidationError
from bcslab.fock import adjoint, commutator, expectation, ladder_matrix, vacuum_state
from bcslab.gapsolve import AngleTable, GapTable, solve_gap, solve_new_gap
from bcslab.hamiltonian import OperatorBundle, build_HM, build_Hprime
from bcslab.model import Kernel, explicit_modes, separable_kernel
from bcslab.states import bcs_state, correction_state, fermi_vacuum, normalized_psi

from conftest import angles_of, bundle_of, quasi_dag_of


@pytest.fixture
def solved_pair(two_mode):
    mt, kernel = two_mode
    angles = angles_of(mt, [1.2, 1.2])
    ops = OperatorBundle(mt, kernel)
    psi_b = bcs_state(ops, angles)
    quasi_dag = quasi_dag_of(ops, angles)
    corr = correction_state(mt, kernel, angles, quasi_dag, psi_b)
    psi = normalized_psi(psi_b, corr)
    return ops, kernel, angles, psi_b, quasi_dag, corr, psi


def test_ebcs_pair_instance(solved_pair):
    ops, kernel, angles, psi_b, *_ = solved_pair
    w = 0.5 * angles.sin2t
    ebcs = ebcs_formula(ops.mt, angles, w)
    assert ebcs == pytest.approx(-0.08, abs=1e-14)  # 2 (1.6 - 2 + 1.2 * 0.3)
    assert expectation(psi_b, ops.H, psi_b).real == pytest.approx(ebcs, abs=1e-12)
    hm = build_HM(ops, GapTable(delta=angles.delta), w)
    assert expectation(psi_b, hm, psi_b).real == pytest.approx(ebcs, abs=1e-12)


def test_ebcs_gapless_limits():
    mt = explicit_modes([(1, 0, 0), (-1, 0, 0)], xi_override=[0.7, 0.7])
    angles = angles_of(mt, [0.0, 0.0])
    assert ebcs_formula(mt, angles, np.zeros(2)) == 0.0
    mt = explicit_modes([(0, 0, 0), (1, 0, 0), (-1, 0, 0)], mu=0.5)
    angles = angles_of(mt, np.zeros(3))
    assert ebcs_formula(mt, angles, np.zeros(3)) == pytest.approx(free_fermi_energy(mt), abs=1e-14)
    assert free_fermi_energy(mt) == pytest.approx(-1.0, abs=1e-15)  # 2 xi_0 = -1


def test_hm_spectrum_pair_instance(solved_pair):
    ops, kernel, angles, psi_b, *_ = solved_pair
    mt = ops.mt
    w = 0.5 * angles.sin2t
    gap = GapTable(delta=angles.delta)
    hm = build_HM(ops, gap, w)
    ebcs = ebcs_formula(mt, angles, w)
    dev, eigs = hm_spectrum_check(hm, mt, gap, ebcs)
    assert dev <= 1e-9
    assert eigs[0] == pytest.approx(-0.08, abs=1e-12)
    assert eigs[1] == pytest.approx(-0.08 + 2.0, abs=1e-12)  # one quasiparticle costs E = 2


def test_hm_spectrum_free_limit():
    mt = explicit_modes([(0, 0, 0), (1, 0, 0), (-1, 0, 0)], mu=0.5)
    gap = GapTable(delta=np.zeros(3))
    hm = build_HM(bundle_of(mt), gap, np.zeros(3))
    angles = angles_of(mt, np.zeros(3))
    ebcs = ebcs_formula(mt, angles, np.zeros(3))
    dev, _ = hm_spectrum_check(hm, mt, gap, ebcs)
    assert dev <= 1e-12


SECTOR_INSTANCES = {
    "pair": [(1, 0, 0), (-1, 0, 0)],
    "three_mode": [(0, 0, 0), (1, 0, 0), (-1, 0, 0)],
    "e1_e2": [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)],
}


def random_hm(modes, rng, variant):
    """H_M at a random gap table with Delta(-k) = Delta(k), and its E_BCS.

    The classic variant takes w = sin(2 theta)/2 of Psi_B; the corrected one
    takes w from an arbitrary state, here random.
    """
    mt = explicit_modes(modes, mu=0.5)
    delta = rng.uniform(0.2, 1.8, size=mt.n_modes)
    gap = GapTable(delta=0.5 * (delta + delta[mt.pair]))
    angles = AngleTable.from_delta(mt, gap)
    w = 0.5 * angles.sin2t if variant == "classic" else rng.uniform(-0.5, 0.5, size=mt.n_modes)
    return mt, gap, build_HM(bundle_of(mt), gap, w), ebcs_formula(mt, angles, w)


@pytest.mark.parametrize("variant", ["classic", "corrected"])
@pytest.mark.parametrize("name", sorted(SECTOR_INSTANCES))
def test_hm_sector_spectrum_matches_dense_oracle(name, variant):
    rng = np.random.default_rng(17)
    for _ in range(3):
        mt, gap, hm, ebcs = random_hm(SECTOR_INSTANCES[name], rng, variant)
        dev, spectrum = hm_spectrum_check(hm, mt, gap, ebcs)
        oracle = np.linalg.eigvalsh(hm.toarray())
        assert spectrum.shape == (mt.dim,)
        assert np.max(np.abs(spectrum - oracle)) <= 1e-12
        assert dev <= 1e-9


def test_hm_spectrum_detects_sector_leak():
    rng = np.random.default_rng(3)
    mt, gap, hm, ebcs = random_hm(SECTOR_INSTANCES["pair"], rng, "classic")
    # orbital (k0, up) pairs with (-k0, dn); orbital (k1, up) sits in the other pair sector
    a = ladder_matrix(mt.orb_up(0), mt.n_modes)
    b = ladder_matrix(mt.orb_up(1), mt.n_modes)
    eps = 1e-6
    leaky = csr_array(hm + eps * (adjoint(a) @ b + adjoint(b) @ a))
    assert hm_spectrum_check(hm, mt, gap, ebcs)[0] <= 1e-12
    dev, _ = hm_spectrum_check(leaky, mt, gap, ebcs)
    assert dev >= eps > TOL_LOOSE  # the spectrum check fails


@pytest.mark.parametrize("planted", ["off_diagonal", "non_real_diagonal"])
def test_number_phase_covariance_detects_g_leak(two_mode, monkeypatch, planted):
    """A G that is not a real diagonal fails both covariance checks instead of being read as one."""
    mt, kernel = two_mode
    eps = 1e-6
    # vacuum <-> orbital 0 filled, kept selfadjoint; or a complex number on one diagonal entry
    rows, cols, vals = ([0, 1], [1, 0], [eps, eps]) if planted == "off_diagonal" else ([1], [1], [1j * eps])
    init = OperatorBundle.__init__

    def planted_init(self, mt, kernel):
        init(self, mt, kernel)
        self.G = csr_array(self.G + csr_array((vals, (rows, cols)), shape=(mt.dim, mt.dim)))

    monkeypatch.setattr(OperatorBundle, "__init__", planted_init)
    report = run_verification(mt, kernel, seed=3)
    by_name = {c.name: c for c in report.checks}
    for name in ("number_phase_covariance_c", "number_phase_covariance_h"):
        assert by_name[name].deviation >= eps > TOL_LOOSE
        assert not by_name[name].passed


def test_hm_spectrum_reads_both_triangles():
    rng = np.random.default_rng(4)
    mt, gap, hm, ebcs = random_hm(SECTOR_INSTANCES["pair"], rng, "classic")
    # the vacuum and the filled state share the sector d = (0, 0); H_M moves one pair, so
    # their entry is zero and an entry placed above the diagonal only is not selfadjoint
    eps = 1e-6
    upper = csr_array(([eps], ([0], [mt.dim - 1])), shape=hm.shape)
    dev, _ = hm_spectrum_check(csr_array(hm + upper), mt, gap, ebcs)
    assert dev >= eps > TOL_LOOSE


def test_hm_spectrum_block_size_stays_within_sector(monkeypatch):
    rng = np.random.default_rng(5)
    modes = [(0, 0, 0)] + SECTOR_INSTANCES["e1_e2"]
    mt, gap, hm, ebcs = random_hm(modes, rng, "classic")
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    dev, spectrum = hm_spectrum_check(hm, mt, gap, ebcs)
    assert dev <= 1e-9 and spectrum.shape == (1024,)
    assert shapes and max(s[-1] for s in shapes) <= 2**mt.n_modes


def test_condensation_energy_values(two_mode):
    mt, kernel = two_mode
    assert condensation_energy(mt, GapTable(delta=np.zeros(2))) == 0.0
    cond = condensation_energy(mt, GapTable(delta=np.array([1.2, 1.2])))
    assert cond == pytest.approx(-0.08, abs=1e-15)  # -1/2 * 2 * 0.4^2 / 2
    # dense oracle at the solution
    angles = angles_of(mt, [1.2, 1.2])
    ops = OperatorBundle(mt, kernel)
    h = ops.H
    psi_b = bcs_state(ops, angles)
    psi_f = fermi_vacuum(ops)
    dense = (expectation(psi_b, h, psi_b) - expectation(psi_f, h, psi_f)).real
    assert cond == pytest.approx(dense, abs=1e-10)
    assert cond < 0


def test_condensation_energy_random_instance(three_mode):
    mt, kernel = three_mode
    sol = solve_gap(mt, kernel, tol=1e-13)
    assert sol.converged and not sol.trivial
    ops = OperatorBundle(mt, kernel)
    h = ops.H
    psi_b = bcs_state(ops, sol.theta)
    psi_f = fermi_vacuum(ops)
    dense = (expectation(psi_b, h, psi_b) - expectation(psi_f, h, psi_f)).real
    assert condensation_energy(mt, sol.delta) == pytest.approx(dense, abs=1e-10)


def test_delta_e_pair_instance(solved_pair):
    ops, kernel, angles, psi_b, quasi_dag, corr, psi = solved_pair
    de = delta_E_formula(ops.mt, kernel, angles, corr.overlap)
    # no third mode couples both k and -k, so only the second term survives
    assert de == pytest.approx(-0.093312 / 1.0324, abs=1e-14)
    h = ops.H
    dense = (expectation(psi, h, psi) - expectation(psi_b, h, psi_b)).real
    assert de == pytest.approx(dense, abs=1e-9)
    assert expectation(psi, h, psi).real == pytest.approx(-0.08 - 0.093312 / 1.0324, abs=1e-9)
    assert de < 0


def test_delta_e_zero_interaction(two_mode):
    mt, _ = two_mode
    angles = angles_of(mt, [1.2, 1.2])
    assert delta_E_formula(mt, Kernel(u=np.zeros((2, 2))), angles, 0.0) == 0.0


def test_delta_e_random_instance():
    # the theorem telescopes through H = H_M + H' only at a gap solution, so
    # solve first; instances vary in chemical potential and coupling
    rng = np.random.default_rng(3)
    for _ in range(3):
        mt = explicit_modes([(0, 0, 0), (1, 0, 0), (-1, 0, 0)], mu=rng.uniform(0.3, 1.1))
        kernel = separable_kernel(mt, rng.uniform(2.5, 5.0))
        sol = solve_gap(mt, kernel, tol=1e-13)
        assert sol.converged and not sol.trivial
        ops = OperatorBundle(mt, kernel)
        h = ops.H
        psi_b = bcs_state(ops, sol.theta)
        corr = correction_state(mt, kernel, sol.theta, quasi_dag_of(ops, sol.theta), psi_b)
        psi = normalized_psi(psi_b, corr)
        de = delta_E_formula(mt, kernel, sol.theta, corr.overlap)
        dense = (expectation(psi, h, psi) - expectation(psi_b, h, psi_b)).real
        assert de == pytest.approx(dense, abs=1e-9)


def test_hm_expectation_formula(solved_pair):
    ops, kernel, angles, psi_b, quasi_dag, corr, psi = solved_pair
    mt = ops.mt
    w = 0.5 * angles.sin2t
    hm = build_HM(ops, GapTable(delta=angles.delta), w)
    ebcs = ebcs_formula(mt, angles, w)
    predicted = lemma_hm_expectation_formula(mt, kernel, angles, corr.overlap, ebcs)
    assert predicted == pytest.approx(-0.08 + 0.2592 / 1.0324, abs=1e-14)
    assert expectation(psi, hm, psi).real == pytest.approx(predicted, abs=1e-9)


def test_hprime_checks_pair_instance(solved_pair):
    ops, kernel, angles, psi_b, quasi_dag, corr, psi = solved_pair
    mt = ops.mt
    hp = build_Hprime(ops, kernel, angles)
    assert abs(expectation(psi_b, hp, psi_b)) <= 1e-12
    coupling = np.vdot(corr.phi, hp @ psi_b).real
    assert coupling == pytest.approx(-0.1296, abs=1e-12)
    assert phi_hprime_coupling_formula(mt, kernel, angles) == pytest.approx(-0.1296, abs=1e-14)
    expansion = hprime_bcs_expansion(mt, kernel, angles, quasi_dag, psi_b)
    assert np.linalg.norm(hp @ psi_b - expansion) <= 1e-10


def test_hprime_checks_random_instance(three_mode):
    mt, kernel = three_mode
    sol = solve_gap(mt, kernel, tol=1e-12)
    angles = sol.theta
    ops = OperatorBundle(mt, kernel)
    psi_b = bcs_state(ops, angles)
    quasi_dag = quasi_dag_of(ops, angles)
    corr = correction_state(mt, kernel, angles, quasi_dag, psi_b)
    hp = build_Hprime(ops, kernel, angles)
    assert abs(expectation(psi_b, hp, psi_b)) <= 1e-10
    assert np.vdot(corr.phi, hp @ psi_b).real == pytest.approx(
        phi_hprime_coupling_formula(mt, kernel, angles), abs=1e-9
    )
    expansion = hprime_bcs_expansion(mt, kernel, angles, quasi_dag, psi_b)
    assert np.linalg.norm(hp @ psi_b - expansion) <= 1e-10


def test_ssb_witness_values(solved_pair):
    # (state, [G, B_k] state): zero on the vacuum, -2 (Psi_B, B_k Psi_B) = -0.6 on Psi_B
    ops, kernel, angles, psi_b, quasi_dag, corr, psi = solved_pair
    charge_pair = commutator(ops.G, ops.B[0])
    vac = vacuum_state(ops.mt.n_modes)
    assert expectation(vac, charge_pair, vac) == 0.0
    val = expectation(psi_b, charge_pair, psi_b)
    assert val.real == pytest.approx(-0.6, abs=1e-12)
    assert abs(val.imag) <= 1e-14


def test_ssb_witness_corrected_state(two_mode):
    mt, kernel = two_mode
    nsol = solve_new_gap(mt, kernel, tol=1e-12)
    angles = nsol.theta
    ops = OperatorBundle(mt, kernel)
    psi_bt = bcs_state(ops, angles)
    corr = correction_state(mt, kernel, angles, quasi_dag_of(ops, angles), psi_bt)
    psi_t = normalized_psi(psi_bt, corr)
    for i in range(2):
        witness = expectation(psi_t, commutator(ops.G, ops.B[i]), psi_t)
        pair_val = expectation(psi_t, ops.B[i], psi_t)
        assert abs(witness + 2.0 * pair_val) <= 1e-11
        assert abs(witness) > 0.1  # symmetry is broken at the solution


def selfconsistency_residual(mt, kernel, nsol):
    """max_k |Delta~_k + sum_k' U_{k,k'} (Psi~, B_k' Psi~)|, with Psi~ built from the corrected solution."""
    ops = OperatorBundle(mt, kernel)
    psi_bt = bcs_state(ops, nsol.theta)
    corr = correction_state(mt, kernel, nsol.theta, quasi_dag_of(ops, nsol.theta), psi_bt)
    psi_t = normalized_psi(psi_bt, corr)
    w = np.array([expectation(psi_t, b, psi_t) for b in ops.B])
    return float(np.max(np.abs(nsol.delta.delta + kernel.u @ w)))


def test_corollary_new_selfconsistency(two_mode):
    mt, kernel = two_mode
    tol = 1e-12
    nsol = solve_new_gap(mt, kernel, tol=tol)
    assert nsol.converged
    assert selfconsistency_residual(mt, kernel, nsol) <= 10 * tol


def test_corollary_zero_interaction(two_mode):
    mt, _ = two_mode
    kernel = Kernel(u=np.zeros((2, 2)))
    nsol = solve_new_gap(mt, kernel)
    assert nsol.converged
    assert selfconsistency_residual(mt, kernel, nsol) == 0.0
    row = next(c for c in run_verification(mt, kernel).checks if c.name == "corollary_new_selfconsistency")
    assert row.passed and row.deviation == 0.0


def test_corollary_requires_convergence(two_mode):
    # an unconverged corrected gap is not certified: the row is skipped, not computed
    mt, kernel = two_mode
    report = run_verification(mt, kernel, max_iter=2)
    assert not report.solutions["new"].converged
    row = next(c for c in report.checks if c.name == "corollary_new_selfconsistency")
    assert row.skipped
    assert row.reason == "corrected equation did not converge"


def test_monotone_energy_chain(three_mode):
    mt, kernel = three_mode
    sol = solve_gap(mt, kernel, tol=1e-12)
    assert not sol.trivial
    ops = OperatorBundle(mt, kernel)
    h = ops.H
    psi_b = bcs_state(ops, sol.theta)
    corr = correction_state(mt, kernel, sol.theta, quasi_dag_of(ops, sol.theta), psi_b)
    psi = normalized_psi(psi_b, corr)
    psi_f = fermi_vacuum(ops)
    e_psi = expectation(psi, h, psi).real
    e_b = expectation(psi_b, h, psi_b).real
    e_f = expectation(psi_f, h, psi_f).real
    assert e_psi < e_b - 1e-12
    assert e_b < e_f - 1e-12


EXPECTED_CHECKS = [
    "kernel_constraints",
    "car_relations",
    "charge_commutes_with_h",
    "number_phase_covariance_c",
    "number_phase_covariance_h",
    "gap_solution_classic",
    "bcs_product_vs_exponential",
    "pair_expectation_half_sin2theta",
    "ssb_witness_commutator",
    "pairing_commutators",
    "meanfield_conjugation",
    "gamma_car",
    "gamma_annihilates_bcs",
    "gamma_closed_form_vs_conjugation",
    "hm_splitting",
    "hprime_definition",
    "ebcs_formula_vs_dense_hm",
    "ebcs_formula_vs_dense_h",
    "fermi_vacuum_energy",
    "hm_spectrum_multiset",
    "hm_ground_equals_ebcs",
    "condensation_energy",
    "bcs_phi_orthogonal",
    "phi_overlap_equals_half_dsum",
    "hprime_on_bcs_vanishes",
    "hprime_bcs_expansion",
    "phi_hprime_bcs_formula",
    "psi_hm_expectation_formula",
    "delta_e_formula_vs_dense",
    "energy_ordering_chain",
    "corrected_pair_expectation",
    "gap_solution_new",
    "new_gap_reduction",
    "gamma_tilde_car",
    "gamma_tilde_annihilates_bcs",
    "new_overlap_identity",
    "corollary_new_selfconsistency",
    "new_spectrum_multiset",
    "ssb_witness_corrected_state",
    "ordering_invariance",
]


def test_run_verification_pair_instance(two_mode):
    mt, kernel = two_mode
    report = run_verification(mt, kernel, seed=3)
    assert [c.name for c in report.checks] == EXPECTED_CHECKS
    assert report.all_passed
    assert report.failures() == []
    assert not report.metadata["classic"]["trivial"]


def test_run_verification_zero_interaction(two_mode):
    mt, _ = two_mode
    report = run_verification(mt, Kernel(u=np.zeros((2, 2))))
    assert [c.name for c in report.checks] == EXPECTED_CHECKS  # complete even when skipping
    assert report.all_passed
    assert report.metadata["classic"]["trivial"]
    skipped = {c.name: c.reason for c in report.checks if c.skipped}
    assert "energy_ordering_chain" in skipped
    assert all(reason for reason in skipped.values())


def test_new_gap_reduction_reads_the_classic_solution(two_mode):
    """An unconverged classic gap fails the reduction check instead of being compared with itself."""
    mt, kernel = two_mode
    report = run_verification(mt, kernel, damping=1.0, tol=1e-12, max_iter=3)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["gap_solution_classic"].passed
    assert not by_name["new_gap_reduction"].passed
    assert by_name["new_gap_reduction"].deviation > 1e-3


def test_run_verification_rejects_bad_kernel(two_mode):
    mt, _ = two_mode
    with pytest.raises(ValidationError):
        run_verification(mt, Kernel(u=np.array([[0.0, 2.0], [2.0, 0.0]])))


@pytest.mark.parametrize("bad", [{"tol": True}, {"tol": np.bool_(True)}, {"tol": -1.0}, {"init": True}])
def test_run_verification_rejects_bad_solver_settings(two_mode, bad):
    # tol is certified as given but solved at min(tol, 1e-12), which would turn True into 1e-12
    mt, kernel = two_mode
    with pytest.raises(ValidationError, match="solver"):
        run_verification(mt, kernel, **bad)


def test_run_verification_random_m3():
    mt = explicit_modes([(0, 0, 0), (1, 0, 0), (-1, 0, 0)], mu=0.9)
    kernel = separable_kernel(mt, 4.0)
    report = run_verification(mt, kernel, seed=11)
    assert report.all_passed
    assert not report.metadata["classic"]["trivial"]


def test_run_verification_self_paired_only():
    mt = explicit_modes([(0, 0, 0)], mu=1.0)
    report = run_verification(mt, Kernel(u=np.zeros((1, 1))))
    assert report.all_passed


def test_run_verification_skips_d_checks_when_d_undefined():
    """xi = 0 with U = -4: the corrected equation collapses onto two coupled E = 0 modes."""
    mt = explicit_modes([(1, 0, 0), (-1, 0, 0)], xi_override=[0.0, 0.0])
    report = run_verification(mt, Kernel(u=np.array([[0.0, -4.0], [-4.0, 0.0]])))
    assert report.metadata["new"]["trivial"] and report.metadata["new"]["dsum"] > 1e30
    by_name = {c.name: c for c in report.checks}
    assert by_name["new_overlap_identity"].skipped
    assert by_name["new_overlap_identity"].reason == "D undefined: E=0 at kernel-coupled modes [0, 1]"
    assert not by_name["phi_overlap_equals_half_dsum"].skipped  # the classic gap is nonzero
    assert report.all_passed


def test_run_verification_peak_memory_on_the_seven_mode_lattice():
    """The M = 7 golden pass allocates at most 28 MiB at its peak.

    With int64 sparse indices it peaks near 37.5 MiB. int32 indices bring it
    near 26 MiB, and releasing each operator after its last reader near 20.
    """
    cfg = load_config(str(Path(__file__).parent / "golden" / "seven_mode" / "config.json"))
    tracemalloc.start()
    try:
        report = run_verification(cfg.mt, cfg.kernel, seed=cfg.seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_passed
    assert peak < 28 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_run_verification_peak_memory_on_the_six_mode_golden():
    """The M = 6 golden pass allocates at most 5.5 MiB at its peak.

    Its series and CAR stacks hold two operators of dim 4096 (8192 rows),
    and it peaks near 5.26 MiB, against 5.03 MiB with one operator per
    stack; the bound leaves about 5% above the stacked figure.
    """
    cfg = load_config(str(Path(__file__).parent / "golden" / "six_mode" / "config.json"))
    tracemalloc.start()
    try:
        report = run_verification(cfg.mt, cfg.kernel, seed=cfg.seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_passed
    assert peak < 5.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_run_verification_peak_memory_on_the_ac10_instance():
    """The M = 5 AC-10 pass allocates at most 1.9 MiB at its peak.

    Unstacked it peaks near 1.2 MiB.  The 4096-row stacks of the series and
    the CAR check (four operators at dim 1024) bring it near 1.6 MiB, the
    8192-row stacks (eight operators) near 1.85 MiB, and 16384-row stacks
    near 2.1 MiB.
    """
    mt = explicit_modes([(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)], mu=0.5)
    kernel = separable_kernel(mt, 1.5)
    tracemalloc.start()
    try:
        report = run_verification(mt, kernel, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_passed
    assert peak < 1.9 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_run_verification_builds_each_ladder_once(three_mode, monkeypatch):
    """One set of 2M ladders each for the CAR check, the operator bundle and the permuted instance's bundle."""
    mt, kernel = three_mode
    built = []
    original = fock.ladder_matrix

    def counted(j, n_modes):
        built.append(j)
        return original(j, n_modes)

    for name, module in list(sys.modules.items()):
        if name.startswith("bcslab") and getattr(module, "ladder_matrix", None) is original:
            monkeypatch.setattr(module, "ladder_matrix", counted)
    report = run_verification(mt, kernel, seed=3)
    assert report.all_passed
    assert 0 < len(built) <= 3 * mt.n_orbitals


def test_run_verification_forms_each_pair_operator_once(three_mode, monkeypatch):
    """One K = i G_B per pass, and each B*_k formed once, by the bundle, instead of at every reader."""
    mt, kernel = three_mode
    originals = {"build_GB": hamiltonian.build_GB, "adjoint": fock.adjoint}
    calls = dict.fromkeys(originals, 0)

    def counting(fn):
        def counted(*args):
            calls[fn] += 1
            return originals[fn](*args)

        return counted

    for name, module in list(sys.modules.items()):
        for fn, original in originals.items():
            if name.startswith("bcslab") and getattr(module, fn, None) is original:
                monkeypatch.setattr(module, fn, counting(fn))
    report = run_verification(mt, kernel, seed=3)
    assert report.all_passed
    assert calls["build_GB"] == 1
    # 116 calls when each reader formed its own B*_k (32 of them); the two bundles form one per mode
    assert 0 < calls["adjoint"] <= 116 - 32 + 2 * mt.n_modes


def test_run_verification_forms_each_gamma_dag_once(three_mode, monkeypatch):
    """The gamma* of each angle table are formed once for the quartets, which Phi and H' Psi_B share.

    `car_deviation` forms its own creators inside the two gamma CAR checks,
    so the classic and corrected gammas are adjointed twice and the permuted
    instance's once; the classic ones were adjointed three times when Phi
    and the expansion each formed their own gamma*.
    """
    mt, kernel = three_mode
    gammas, adjointed = [], []  # held, so no id is reused during the pass
    originals = {"quasi_ops": states.quasi_ops, "adjoint": fock.adjoint}

    def quasi_ops(*args):
        out = originals["quasi_ops"](*args)
        gammas.extend(out)
        return out

    def adjoint(a):
        adjointed.append(a)
        return originals["adjoint"](a)

    for name, module in list(sys.modules.items()):
        for fn, wrapper in (("quasi_ops", quasi_ops), ("adjoint", adjoint)):
            if name.startswith("bcslab") and getattr(module, fn, None) is originals[fn]:
                monkeypatch.setattr(module, fn, wrapper)
    report = run_verification(mt, kernel, seed=3)
    assert report.all_passed
    # classic, corrected and permuted angle tables, in that order
    n = mt.n_orbitals
    assert len(gammas) == 3 * n
    times = [sum(a is g for a in adjointed) for g in gammas]
    assert times == [2] * (2 * n) + [1] * n
