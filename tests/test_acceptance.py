"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run pytest -s to see them all).
Reference pair instance: modes {k, -k}, xi = 1.6, U(k,-k) = -4, whose gap
equation solves in closed form to Delta = 1.2.
"""

import math
import time

import numpy as np
import pytest

from bcslab.analysis import (
    condensation_energy,
    delta_E_formula,
    ebcs_formula,
    hm_spectrum_check,
    lemma_hm_expectation_formula,
    run_verification,
)
from bcslab.fock import (
    anticommutator_check,
    commutator,
    expectation,
    ladder_matrix,
    vacuum_state,
)
from bcslab.gapsolve import (
    GapTable,
    dk_weights,
    gap_residual,
    new_gap_residual,
    solve_gap,
    solve_new_gap,
)
from bcslab.hamiltonian import OperatorBundle, build_GB, build_HM, build_Hprime
from bcslab.model import Kernel, explicit_modes, separable_kernel
from bcslab.sectors import PairSectors
from bcslab.states import (
    bcs_state,
    correction_state,
    fermi_vacuum,
    normalized_psi,
    pair_table,
    quasi_ops,
)

from conftest import angles_from_theta, conjugate_series, csr_norm, ladders_of, to_csr, vacuum_exponential


def criterion(tag, description, passed):
    print(f"[{tag}] {description}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"{tag} failed: {description}"


def pair_instance():
    mt = explicit_modes([(1, 0, 0), (-1, 0, 0)], xi_override=[1.6, 1.6])
    return mt, Kernel(u=np.array([[0.0, -4.0], [-4.0, 0.0]]))


def three_mode_instance():
    mt = explicit_modes([(0, 0, 0), (1, 0, 0), (-1, 0, 0)], mu=0.9)
    return mt, separable_kernel(mt, 4.0)


def solved_pair(tol=1e-13):
    mt, kernel = pair_instance()
    sol = solve_gap(mt, kernel, damping=1.0, tol=tol)
    assert sol.converged
    return mt, kernel, sol


def test_ac1_car_suite():
    start = time.perf_counter()
    worst = max(anticommutator_check(ladders_of(m)) for m in (1, 2, 3, 4))
    elapsed = time.perf_counter() - start
    criterion("AC-1", f"CAR deviation exactly 0 for M in 1..4 (got {worst})", worst == 0.0)
    criterion("AC-1", f"CAR suite runtime {elapsed:.2f}s < 5s", elapsed < 5.0)


def test_ac2_number_symmetry_covariance():
    mt, kernel = three_mode_instance()
    bundle = OperatorBundle(mt, kernel)
    # exp(-iaG) A exp(iaG) is the series conjugation by the anti-selfadjoint K = iG
    igen = 1j * to_csr(bundle.G)
    worst_c = 0.0
    worst_h = 0.0
    for alpha in (0.3, 1.0, math.pi):
        for j in range(mt.n_orbitals):
            c = ladder_matrix(j, mt.n_modes)
            rotated = conjugate_series(c, igen, alpha, tol=1e-12)
            worst_c = max(worst_c, csr_norm(rotated - np.exp(1j * alpha) * to_csr(c)))
        worst_h = max(
            worst_h, csr_norm(conjugate_series(bundle.H, igen, alpha, tol=1e-12) - to_csr(bundle.H))
        )
    criterion("AC-2", f"exp(-iaG) C exp(iaG) = exp(ia) C within 1e-9 (got {worst_c:.2e})", worst_c <= 1e-9)
    criterion("AC-2", f"exp(-iaG) H exp(iaG) = H within 1e-9 (got {worst_h:.2e})", worst_h <= 1e-9)


def test_ac3_gap_solver():
    start = time.perf_counter()
    mt, kernel, sol = solved_pair()
    dev = float(np.max(np.abs(sol.delta.delta - 1.2)))
    weak = Kernel(u=np.array([[0.0, -2.0], [-2.0, 0.0]]))
    sub = solve_gap(mt, weak)
    elapsed = time.perf_counter() - start
    criterion("AC-3", f"pair-instance gap = 1.2 within 1e-10 (got dev {dev:.2e})", dev <= 1e-10)
    criterion(
        "AC-3",
        "sub-threshold coupling (g=2) reports the trivial solution",
        sub.converged and sub.trivial,
    )
    criterion("AC-3", f"gap solver runtime {elapsed:.2f}s < 1s", elapsed < 1.0)


def test_ac4_state_equivalence():
    mt, kernel, sol = solved_pair()
    ops = OperatorBundle(mt, kernel)
    exponential = vacuum_exponential(ops, sol.delta)
    worst = float(np.linalg.norm(bcs_state(ops, sol.delta) - exponential))
    mt3, kern3 = three_mode_instance()
    ops3 = OperatorBundle(mt3, kern3)
    rng = np.random.default_rng(42)
    for _ in range(20):
        t0, t1 = rng.uniform(0.0, 0.5 * math.pi, size=2)
        angles = angles_from_theta(mt3, [t0, t1, t1])
        exponential = vacuum_exponential(ops3, angles)
        dev = float(np.linalg.norm(bcs_state(ops3, angles) - exponential))
        worst = max(worst, dev)
    criterion(
        "AC-4",
        f"product state = exp(iG_B)|0> within 1e-10 on pair instance and 20 random angle tables "
        f"(got {worst:.2e})",
        worst <= 1e-10,
    )


def test_ac5_expectation_identities():
    mt, kernel, sol = solved_pair()
    ops = OperatorBundle(mt, kernel)
    psi_b = bcs_state(ops, sol.delta)
    worst_pair = 0.0
    worst_ssb = 0.0
    for b in ops.B:
        worst_pair = max(worst_pair, abs(expectation(psi_b, b, psi_b) - 0.3))
        witness = expectation(psi_b, commutator(ops.G, b), psi_b)
        worst_ssb = max(worst_ssb, abs(witness - (-0.6)))
    criterion(
        "AC-5", f"(Psi_B, B_k Psi_B) = 0.3 within 1e-11 (got {worst_pair:.2e})", worst_pair <= 1e-11
    )
    criterion(
        "AC-5",
        f"(Psi_B, [G,B_k] Psi_B) = -0.6 within 1e-11 (got {worst_ssb:.2e})",
        worst_ssb <= 1e-11,
    )


def test_ac6_meanfield_diagonalization():
    mt, kernel, sol = solved_pair()
    ops = OperatorBundle(mt, kernel)
    psi_b = bcs_state(ops, sol.delta)
    w = np.array([expectation(psi_b, b, psi_b).real for b in ops.B])
    hm = build_HM(ops, sol.delta, w)
    ebcs = ebcs_formula(mt, sol.delta, w)
    dev, spectrum = hm_spectrum_check(hm, PairSectors(mt), sol.delta, ebcs)
    ground = float(spectrum[0])
    criterion("AC-6", f"pair-instance sigma(H_M) multiset within 1e-9 (got {dev:.2e})", dev <= 1e-9)
    criterion(
        "AC-6",
        f"pair-instance ground eigenvalue = E_BCS = -0.08 (got {ground:.12f})",
        abs(ground + 0.08) <= 1e-9,
    )
    mt3, kern3 = three_mode_instance()
    rng = np.random.default_rng(8)
    d = rng.uniform(0.2, 1.8, size=2)
    gap3 = GapTable.from_delta(mt3, [d[0], d[1], d[1]])
    w3 = 0.5 * gap3.sin2t
    hm3 = build_HM(OperatorBundle(mt3, kern3), gap3, w3)
    dev3, _ = hm_spectrum_check(hm3, PairSectors(mt3), gap3, ebcs_formula(mt3, gap3, w3))
    criterion("AC-6", f"random M=3 sigma(H_M) multiset within 1e-9 (got {dev3:.2e})", dev3 <= 1e-9)


def test_ac7_energy_chain():
    mt, kernel, sol = solved_pair()
    bundle = OperatorBundle(mt, kernel)
    psi_b = bcs_state(bundle, sol.delta)
    psi_f = fermi_vacuum(bundle)
    corr = correction_state(mt, kernel, sol.delta, quasi_ops(bundle, sol.delta), psi_b)
    psi = normalized_psi(psi_b, corr)
    e_b = expectation(psi_b, bundle.H, psi_b).real
    e_f = expectation(psi_f, bundle.H, psi_f).real
    e_psi = expectation(psi, bundle.H, psi).real

    cond = condensation_energy(mt, sol.delta)
    dev_cond = abs(cond - (e_b - e_f))
    criterion(
        "AC-7",
        f"condensation formula = dense difference within 1e-10, value -0.08 "
        f"(got dev {dev_cond:.2e})",
        dev_cond <= 1e-10 and abs(cond + 0.08) <= 1e-10,
    )
    de = delta_E_formula(mt, kernel, sol.delta, corr.overlap)
    dev_de = abs(de - (e_psi - e_b))
    criterion(
        "AC-7",
        f"energy-gain formula = dense difference within 1e-9, value -0.090384 "
        f"(got dev {dev_de:.2e})",
        dev_de <= 1e-9 and abs(de - (-0.093312 / 1.0324)) <= 1e-9,
    )
    criterion(
        "AC-7",
        "strict ordering (Psi,H Psi) < (Psi_B,H Psi_B) < (Psi_F,H Psi_F)",
        e_psi < e_b - 1e-12 and e_b < e_f - 1e-12,
    )


def test_ac8_correction_lemma_suite():
    mt, kernel, sol = solved_pair()
    angles = sol.delta
    ops = OperatorBundle(mt, kernel)
    psi_b = bcs_state(ops, angles)
    corr = correction_state(mt, kernel, angles, quasi_ops(ops, angles), psi_b)
    psi = normalized_psi(psi_b, corr)
    hp = build_Hprime(ops, angles)
    w = 0.5 * angles.sin2t
    hm = build_HM(ops, sol.delta, w)

    ortho = abs(np.vdot(psi_b, corr.phi))
    criterion("AC-8", f"(Psi_B, Phi) = 0 (got {ortho:.2e})", ortho <= 1e-12)
    hp_exp = abs(expectation(psi_b, hp, psi_b))
    criterion("AC-8", f"(Psi_B, H' Psi_B) = 0 (got {hp_exp:.2e})", hp_exp <= 1e-10)
    coupling = np.vdot(corr.phi, hp @ psi_b).real
    criterion(
        "AC-8",
        f"(Phi, H' Psi_B) = -0.1296 (got {coupling:.10f})",
        abs(coupling + 0.1296) <= 1e-9,
    )
    val = expectation(psi, hm, psi).real
    predicted = lemma_hm_expectation_formula(
        mt, kernel, angles, corr.overlap, ebcs_formula(mt, angles, w)
    )
    criterion(
        "AC-8",
        f"(Psi, H_M Psi) = 0.171065 within 1e-6 and matches its formula (got {val:.9f})",
        abs(val - 0.171065) <= 1e-6 and abs(val - predicted) <= 1e-9,
    )


def test_ac9_new_gap_equation():
    mt, kernel = pair_instance()
    tol = 1e-12
    nsol = solve_new_gap(mt, kernel, damping=1.0, tol=tol)
    resid = float(np.max(np.abs(new_gap_residual(mt, kernel, nsol.delta))))
    criterion(
        "AC-9",
        f"corrected equation converges with residual <= 1e-10 (got {resid:.2e})",
        nsol.converged and resid <= 1e-10,
    )
    criterion(
        "AC-9",
        f"0 < corrected gap < classic gap 1.2 (got {nsol.delta.delta[0]:.6f})",
        bool(np.all(nsol.delta.delta > 0) and np.all(nsol.delta.delta < 1.2)),
    )
    ops = OperatorBundle(mt, kernel)
    psi_bt = bcs_state(ops, nsol.delta)
    corr_t = correction_state(mt, kernel, nsol.delta, quasi_ops(ops, nsol.delta), psi_bt)
    overlap_dev = abs(corr_t.overlap - 0.5 * nsol.dsum)
    criterion(
        "AC-9",
        f"(Phi~, Phi~) = D/2 within 1e-10 (got dev {overlap_dev:.2e})",
        overlap_dev <= 1e-10,
    )
    psi_t = normalized_psi(psi_bt, corr_t)
    flagship = float(np.max(np.abs(nsol.delta.delta + kernel.u @ pair_table(ops, psi_t))))
    criterion(
        "AC-9",
        f"pair-instance self-consistency max_k |Delta~ + sum U (Psi~,B Psi~)| <= 1e-9 "
        f"(got {flagship:.2e})",
        flagship <= 1e-9,
    )

    mt3, kern3 = three_mode_instance()
    nsol3 = solve_new_gap(mt3, kern3, tol=tol)
    ops3 = OperatorBundle(mt3, kern3)
    psi_bt3 = bcs_state(ops3, nsol3.delta)
    corr3 = correction_state(mt3, kern3, nsol3.delta, quasi_ops(ops3, nsol3.delta), psi_bt3)
    psi_t3 = normalized_psi(psi_bt3, corr3)
    flagship3 = float(np.max(np.abs(nsol3.delta.delta + kern3.u @ pair_table(ops3, psi_t3))))
    criterion(
        "AC-9",
        f"M=3 corrected equation converges and self-consistency <= 1e-9 (got {flagship3:.2e})",
        nsol3.converged and flagship3 <= 1e-9,
    )


def test_ac10_scale_ceiling():
    mt5 = explicit_modes([(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)], mu=0.5)
    kern5 = separable_kernel(mt5, 1.5)
    start = time.perf_counter()
    report = run_verification(mt5, kern5, seed=5)
    elapsed = time.perf_counter() - start
    criterion("AC-10", f"full verification on M=5 in {elapsed:.1f}s < 60s", elapsed < 60.0)
    criterion("AC-10", "M=5 verification all checks pass", report.all_passed)
    ordering = next(c for c in report.checks if c.name == "ordering_invariance")
    criterion(
        "AC-10",
        f"ordering invariance under permuted mode enumeration within 1e-10 "
        f"(got {ordering.deviation:.2e})",
        (not ordering.skipped) and ordering.deviation <= 1e-10,
    )
