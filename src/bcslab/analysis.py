"""Closed-form identities vs brute-force matrix computation.

Every scalar produced by a formula here is paired with an independent
matrix-side evaluation (eigendecomposition of H_M block by block over its
pair sectors, explicit state vectors, sparse operator application); no
check compares a formula to itself.
The number-phase covariance checks conjugate by the ladder-built number
operator G entry by entry (`diagonal_conjugate`, for the ladders in row
stacks through `covariance_deviation`), since G is diagonal in the
occupation basis; their deviations also count the largest entry of
G - diag(Re g), so a G that is not a real diagonal fails them.
`run_verification` bundles all checks for one instance into a deterministic
report. It builds each operator, state and expectation once and shares it
between the checks that read it: one `OperatorBundle` (the ladders, B_k,
B*_k, h_k, v_k, G, T, H and the identity) that every builder reads, one
K = i G_B (read by the exponential route to Psi_B, the pairing commutators
and the conjugations), one gamma* list per angle table, the commutators
[G, B_k], the dense H-energies and three pair tables w_k = (state, B_k
state), each one `pair_table` call:
  Psi_B: pair_expectation_half_sin2theta, ssb_witness_commutator, H_M and
         E_BCS, hm_splitting and new_gap_reduction;
  Psi:   corrected_pair_expectation;
  Psi~:  corollary_new_selfconsistency, the corrected H_M of
         new_spectrum_multiset and ssb_witness_corrected_state.
It releases each large operator after its last reader, so one stage's
operators do not stack on the next stage's. The dense
checks are skipped above `DENSE_MODE_CAP`, and the (Phi, Phi) = D/2
checks are skipped when D diverges. The report also holds the two gap
solutions it verified (`solutions`), which the report files leave out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import diags_array

from .errors import ValidationError
from .fock import (
    adjoint,
    anticommutator_check,
    car_deviation,
    commutator,
    conjugate_series,
    covariance_deviation,
    diagonal_conjugate,
    evolve_state,
    expectation,
    op_norm_inf,
    vacuum_state,
)
from .gapsolve import (
    AngleTable,
    GapTable,
    check_solver,
    correction_factor,
    dk_weights,
    gap_residual,
    new_gap_residual,
    solve_gap,
    solve_new_gap,
)
from .hamiltonian import OperatorBundle, build_GB, build_HM, build_Hprime
from .model import Kernel, ModeTable, permuted_instance, validate_kernel
from .states import (
    bcs_state,
    correction_state,
    fermi_vacuum,
    normalized_psi,
    pair_coefficients,
    pair_table,
    quartet_sum,
    quasi_ops,
)

# identity checks sit well above double-precision accumulation error at
# desk-scale dimensions and far below any physical scale of the instances
TOL_TIGHT = 1e-12
TOL_EXPECT = 1e-11
TOL_IDENTITY = 1e-10
TOL_LOOSE = 1e-9
STRICT_MARGIN = 1e-12
# the dense checks skipped above this pair count; the benchmark's 7-mode
# reference fixes its skip set at these four checks
DENSE_MODE_CAP = 5


@dataclass
class CheckResult:
    name: str
    formula_value: float
    brute_value: float
    deviation: float
    tolerance: float
    passed: bool
    skipped: bool = False
    reason: str = ""


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    # the verified GapSolutions by equation ("classic", "new"); not written to report files
    solutions: dict = field(default_factory=dict, repr=False)

    def add(self, result: CheckResult) -> None:
        self.checks.append(result)

    @property
    def all_passed(self) -> bool:
        return all(c.passed or c.skipped for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not (c.passed or c.skipped)]


def _compare(name, formula, brute, tol) -> CheckResult:
    dev = abs(formula - brute)
    return CheckResult(name, float(formula), float(brute), float(dev), tol, bool(dev <= tol))


def _deviation(name, dev, tol) -> CheckResult:
    return CheckResult(name, 0.0, float(dev), float(dev), tol, bool(dev <= tol))


def _skip(name, reason) -> CheckResult:
    return CheckResult(name, math.nan, math.nan, math.nan, math.nan, True, True, reason)


# ---------------------------------------------------------------------------
# closed-form scalars


def ebcs_formula(mt: ModeTable, angles: AngleTable, w) -> float:
    """Ground energy of the mean-field Hamiltonian: sum_k (xi - E + Delta w)."""
    if angles.energy is None or angles.delta is None:
        raise ValidationError("angle table must be built from a gap table")
    w = np.asarray(w, dtype=np.float64)
    return float(np.sum(mt.xi - angles.energy + angles.delta * w))


def free_fermi_energy(mt: ModeTable) -> float:
    """Energy of the filled Fermi sea: sum_k (xi - |xi|)."""
    return float(np.sum(mt.xi - np.abs(mt.xi)))


def condensation_energy(mt: ModeTable, gap: GapTable) -> float:
    """-1/2 sum_k (E - |xi|)^2 / E, the pairing energy gain over the normal state."""
    gap.validate(mt)
    energy = np.hypot(mt.xi, gap.delta)
    num = (energy - np.abs(mt.xi)) ** 2
    terms = np.divide(num, energy, out=np.zeros_like(energy), where=energy > 0)
    return float(-0.5 * np.sum(terms))


def _sector_spectrum(hm, mt: ModeTable) -> tuple:
    """(ascending spectrum, largest |entry| coupling two sectors) of H_M, one pair sector at a time.

    Mode i conserves d_i = n(k_i up) - n(-k_i dn), so the basis splits into
    3^M sectors labelled by the d-vector; a sector with z zero entries holds
    2^z states.  The labels come from the occupation bits alone, never from
    the quasiparticle formula.  The stored entries of `hm` are scattered
    into one stack of blocks per sector size, and each stack is
    diagonalized in one call.
    """
    m = mt.n_modes
    idx = np.arange(mt.dim, dtype=np.int64)
    label = np.zeros(mt.dim, dtype=np.int64)
    zeros = np.zeros(mt.dim, dtype=np.int64)
    for i in range(m):
        d = ((idx >> mt.orb_up(i)) & 1) - ((idx >> mt.orb_dn(mt.pair[i])) & 1)
        label = 3 * label + d + 1
        zeros += d == 0
    # rank of each state within its size class, ordered by sector then index:
    # every sector of that class has 2^z states, so rank splits into (block, position)
    order = np.lexsort((label, zeros))
    n_class = np.bincount(zeros, minlength=m + 1)
    rank = np.empty_like(idx)
    rank[order] = idx - (np.cumsum(n_class) - n_class)[zeros[order]]
    block = rank >> zeros
    pos = rank & ((1 << zeros) - 1)

    coo = hm.tocoo()
    coo.sum_duplicates()
    row, col, val = coo.row, coo.col, coo.data
    inside = label[row] == label[col]
    leak = float(np.max(np.abs(val[~inside]), initial=0.0))
    row, col, val = row[inside], col[inside], val[inside]
    eigs = []
    for z in range(m + 1):
        size = 1 << z
        here = zeros[row] == z
        r, c = row[here], col[here]
        blocks = np.zeros((n_class[z] // size, size, size), dtype=val.dtype)
        blocks[block[r], pos[r], pos[c]] = val[here]
        eigs.append(np.linalg.eigvalsh(blocks).ravel())
    return np.sort(np.concatenate(eigs)), leak


def hm_spectrum_check(hm, mt: ModeTable, gap: GapTable, ebcs: float) -> tuple:
    """(max deviation, ascending spectrum) of sigma(H_M) against the quasiparticle multiset.

    Formula side: { sum_k E_k (N_k,up + N_k,dn) + E_BCS } over all
    occupation patterns.  Matrix side: `hm` diagonalized block by block
    over its pair sectors (`_sector_spectrum`).  The deviation also
    counts the largest entry coupling two sectors and ||H_M - H_M*||, so
    a matrix that is not block diagonal or not selfadjoint fails instead
    of being truncated to the triangle and blocks that `eigvalsh` reads.
    It has no size limit of its own: the largest block holds 2^M states.
    """
    energy = np.hypot(mt.xi, gap.delta)
    orb_energy = np.repeat(energy, 2)  # orbital j belongs to mode j//2
    idx = np.arange(mt.dim, dtype=np.int64)
    formula = np.full(mt.dim, ebcs)
    for j in range(mt.n_orbitals):
        formula += orb_energy[j] * ((idx >> j) & 1)
    spectrum, leak = _sector_spectrum(hm, mt)
    dev = max(float(np.max(np.abs(np.sort(formula) - spectrum))), leak, op_norm_inf(hm - adjoint(hm)))
    return dev, spectrum


def delta_E_formula(mt: ModeTable, kernel: Kernel, angles: AngleTable, overlap: float) -> float:
    """Energy gain of the corrected state over the paired product state.

    Both contributions are nonpositive for an attractive kernel; the result
    must match the dense difference (Psi, H Psi) - (Psi_B, H Psi_B).
    """
    c = pair_coefficients(mt, kernel, angles)
    c2 = angles.cos_t**2
    s2 = angles.sin_t**2
    cs = angles.cos_t * angles.sin_t
    norm = 1.0 + overlap
    first = np.sum(kernel.u * (np.outer(c2, c2) + np.outer(s2, s2)) * (c @ c.T)) / norm
    second = 4.0 * np.sum(kernel.u * np.outer(cs, cs) * c**2) / norm
    return float(first + second)


def _coupling_sum(mt: ModeTable, kernel: Kernel, angles: AngleTable) -> float:
    """sum_{p,p'} U^2 (C^2 S'^2 + C'^2 S^2)^2 / (E_p + E_p')."""
    c = pair_coefficients(mt, kernel, angles)
    esum = angles.energy[:, None] + angles.energy[None, :]
    return float(np.sum(c**2 * esum))


def lemma_hm_expectation_formula(
    mt: ModeTable, kernel: Kernel, angles: AngleTable, overlap: float, ebcs: float
) -> float:
    """(Psi, H_M Psi) = E_BCS + [sum_{p,p'} U^2 (...)^2/(E_p+E_p')] / (1 + (Phi,Phi))."""
    return ebcs + _coupling_sum(mt, kernel, angles) / (1.0 + overlap)


def phi_hprime_coupling_formula(mt: ModeTable, kernel: Kernel, angles: AngleTable) -> float:
    """(Phi, H' Psi_B) = -1/2 sum_{p,p'} U^2 (...)^2 / (E_p + E_p')."""
    return -0.5 * _coupling_sum(mt, kernel, angles)


def hprime_bcs_expansion(
    mt: ModeTable, kernel: Kernel, angles: AngleTable, quasi_dag: list, psi_b: np.ndarray
) -> np.ndarray:
    """H' Psi_B = - sum_{k,k'} U_{k,k'} S_k^2 C_k'^2 gamma*4-string Psi_B, with the gamma* of `quartet_sum`."""
    m = mt.n_modes
    s2 = angles.sin_t**2
    c2 = angles.cos_t**2
    terms = ((k, kp, -(kernel.u[k, kp] * s2[k] * c2[kp]))
             for k in range(m) for kp in range(m) if k != kp)
    return quartet_sum(mt, quasi_dag, terms, psi_b)


def _selfconsistency(gap: GapTable, kernel: Kernel, pair_expect: np.ndarray) -> float:
    """max_k |Delta_k + sum_k' U_{k,k'} w_k'| for pair expectations w_k' = (state, B_k' state)."""
    residual = gap.delta + kernel.u @ pair_expect
    return float(np.max(np.abs(residual)))


# ---------------------------------------------------------------------------
# the full verification pass


def _certificate(name, residual, tol, sol) -> CheckResult:
    """Gap-equation residual certificate; a trivial solution is noted as the reason."""
    cert = float(np.max(np.abs(residual)))
    reason = "trivial solution" if sol.trivial else ""
    return CheckResult(name, 0.0, cert, cert, tol, bool(cert <= tol), reason=reason)


def _ssb_deviation(state, charge_pairs, pairs) -> float:
    """max_k |(state, [G, B_k] state) + 2 (state, B_k state)|, given [G, B_k] and the pair table."""
    return max(
        (abs(expectation(state, cp, state) + 2.0 * p) for cp, p in zip(charge_pairs, pairs)),
        default=0.0,
    )


def _gamma_checks(report, prefix, quasi, psi_ref) -> None:
    """CAR of the quasiparticle annihilators, and that each annihilates the paired state."""
    report.add(_deviation(f"{prefix}_car", car_deviation(quasi), TOL_TIGHT))
    dev = max((float(np.linalg.norm(g @ psi_ref)) for g in quasi), default=0.0)
    report.add(_deviation(f"{prefix}_annihilates_bcs", dev, TOL_IDENTITY))


def _overlap_check(name, kernel, sol, overlap, dsum) -> CheckResult:
    """(Phi, Phi) = D/2, skipped when D diverges because the kernel couples two modes with E = 0."""
    degenerate = list(sol.degenerate_modes)
    coupled = [k for k in degenerate if np.any(kernel.u[k, degenerate] != 0.0)]
    if coupled:
        return _skip(name, f"D undefined: E=0 at kernel-coupled modes {coupled}")
    return _compare(name, overlap, 0.5 * dsum, TOL_IDENTITY)


def _physical_scalars(mt, kernel, sol, new_sol, corr) -> np.ndarray:
    """Order-independent scalars of a solved instance, for the permutation check."""
    scalars = [
        ebcs_formula(mt, sol.theta, 0.5 * sol.theta.sin2t),
        condensation_energy(mt, sol.delta),
        delta_E_formula(mt, kernel, sol.theta, corr.overlap),
    ]
    return np.concatenate((scalars, np.sort(sol.delta.delta), np.sort(new_sol.delta.delta)))


def run_verification(
    mt: ModeTable,
    kernel: Kernel,
    init: float = 1.0,
    damping: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 10000,
    seed: int = 0,
) -> VerificationReport:
    """Run every identity check for one instance, in a fixed documented order.

    Check failures are recorded in the report, never raised; infrastructure
    errors (bad kernel or seed, dimension cap) abort with context.
    """
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")
    # the solves below run at min(tol, 1e-12), so `tol` itself is checked here
    check_solver(init, damping, tol, max_iter)
    report = VerificationReport()
    m = mt.n_modes
    dense_skip = f"M={m} above dense cap" if m > DENSE_MODE_CAP else ""
    # several identities hold exactly only at a gap-equation solution, with
    # deviations proportional to the solver residual; solving tighter than the
    # certified tolerance keeps that amplification far below the check bars
    solver = {"init": init, "damping": damping, "tol": min(tol, 1e-12), "max_iter": max_iter}

    violations = validate_kernel(kernel, mt)
    report.add(_deviation("kernel_constraints", float(len(violations)), 0.0))
    if violations:
        raise ValidationError("kernel violates structural constraints: " + "; ".join(violations))

    # --- operator algebra ---------------------------------------------------
    report.add(_deviation("car_relations", anticommutator_check(m), 0.0))

    bundle = OperatorBundle(mt, kernel)
    report.add(_deviation("charge_commutes_with_h", op_norm_inf(commutator(bundle.G, bundle.H)), TOL_TIGHT))

    # G conjugates entry by entry only as a real diagonal; any other entry of it
    # counts in both deviations, as the leak term of `_sector_spectrum` does
    g = bundle.G.diagonal().real
    g_leak = float(abs(bundle.G - diags_array(g)).max())
    dev_c = g_leak
    dev_h = g_leak
    for alpha in (0.3, 1.0, math.pi):
        dev_c = max(dev_c, covariance_deviation(bundle.C, g, alpha, np.exp(1j * alpha)))
        dev_h = max(dev_h, op_norm_inf(diagonal_conjugate(bundle.H, g, alpha) - bundle.H))
    report.add(_deviation("number_phase_covariance_c", dev_c, TOL_LOOSE))
    report.add(_deviation("number_phase_covariance_h", dev_h, TOL_LOOSE))

    # --- classic gap equation and states ------------------------------------
    sol = solve_gap(mt, kernel, **solver)
    report.add(_certificate("gap_solution_classic", gap_residual(mt, kernel, sol.delta), tol, sol))
    angles = sol.theta

    gb = build_GB(bundle, angles)
    psi_b = bcs_state(bundle, angles)
    psi_b_exp = evolve_state(gb, vacuum_state(m))
    report.add(_deviation("bcs_product_vs_exponential", float(np.linalg.norm(psi_b - psi_b_exp)), TOL_IDENTITY))
    psi_f = fermi_vacuum(bundle)

    w_dense = pair_table(bundle, psi_b)
    dev = max((abs(p - 0.5 * s) for p, s in zip(w_dense, angles.sin2t)), default=0.0)
    report.add(_deviation("pair_expectation_half_sin2theta", dev, TOL_EXPECT))

    charge_pairs = [commutator(bundle.G, b) for b in bundle.B]
    report.add(_deviation("ssb_witness_commutator", _ssb_deviation(psi_b, charge_pairs, w_dense), TOL_EXPECT))

    dev = 0.0
    for i in range(m):
        dev = max(dev, op_norm_inf(commutator(bundle.h[i], gb) - 2.0 * angles.theta[i] * bundle.v[i]))
        dev = max(dev, op_norm_inf(commutator(bundle.v[i], gb) + 2.0 * angles.theta[i] * (bundle.h[i] - bundle.I)))
    report.add(_deviation("pairing_commutators", dev, TOL_TIGHT))

    dev = 0.0
    mean_field = [mt.xi[i] * bundle.h[i] - angles.delta[i] * bundle.v[i] for i in range(m)]
    for i, lhs in enumerate(conjugate_series(mean_field, gb, 1.0, tol=1e-12)):
        xi_i, d_i = mt.xi[i], angles.delta[i]
        rhs = (
            (xi_i * angles.cos2t[i] + d_i * angles.sin2t[i]) * bundle.h[i]
            + (xi_i * angles.sin2t[i] - d_i * angles.cos2t[i]) * bundle.v[i]
            + (2.0 * xi_i * angles.sin_t[i] ** 2 - d_i * angles.sin2t[i]) * bundle.I
        )
        dev = max(dev, op_norm_inf(lhs - rhs))
    del mean_field, lhs, rhs
    report.add(_deviation("meanfield_conjugation", dev, TOL_LOOSE))

    quasi = quasi_ops(bundle, angles)
    _gamma_checks(report, "gamma", quasi, psi_b)

    if dense_skip:
        report.add(_skip("gamma_closed_form_vs_conjugation", dense_skip))
    else:
        dev = 0.0
        for closed, rotated in zip(quasi, conjugate_series(bundle.C, gb, -1.0, tol=1e-11)):
            dev = max(dev, op_norm_inf(closed - rotated))
        report.add(_deviation("gamma_closed_form_vs_conjugation", dev, TOL_LOOSE))
    del gb

    # --- mean-field splitting -----------------------------------------------
    hm = build_HM(bundle, sol.delta, w_dense)
    fluct = 0.0 * bundle.I
    for kp in range(m):
        bdag = bundle.Bd[kp] - w_dense[kp] * bundle.I
        for k in range(m):
            u = kernel.u[k, kp]
            if u == 0.0:
                continue
            fluct = fluct + u * (bdag @ (bundle.B[k] - w_dense[k] * bundle.I))
    report.add(_deviation("hm_splitting", op_norm_inf(bundle.H - hm - fluct), TOL_IDENTITY))
    # each large operator is released after its last reader, so the ones a
    # later stage builds do not stack on it
    del fluct

    hprime = build_Hprime(bundle, kernel, angles)
    report.add(_deviation("hprime_definition", op_norm_inf(hprime - (bundle.H - hm)), TOL_IDENTITY))

    # --- energies ------------------------------------------------------------
    e_f = expectation(psi_f, bundle.H, psi_f)
    e_b = expectation(psi_b, bundle.H, psi_b)
    ebcs = ebcs_formula(mt, angles, w_dense)
    report.add(_compare("ebcs_formula_vs_dense_hm", ebcs, expectation(psi_b, hm, psi_b), TOL_IDENTITY))
    if sol.converged:
        report.add(_compare("ebcs_formula_vs_dense_h", ebcs, e_b, TOL_IDENTITY))
    else:
        report.add(_skip("ebcs_formula_vs_dense_h", "needs a gap-equation solution"))
    report.add(_compare("fermi_vacuum_energy", free_fermi_energy(mt), e_f, TOL_IDENTITY))

    if dense_skip:
        report.add(_skip("hm_spectrum_multiset", dense_skip))
        report.add(_skip("hm_ground_equals_ebcs", dense_skip))
    else:
        dev, spectrum = hm_spectrum_check(hm, mt, sol.delta, ebcs)
        report.add(_deviation("hm_spectrum_multiset", dev, TOL_LOOSE))
        report.add(_compare("hm_ground_equals_ebcs", ebcs, float(spectrum[0]), TOL_LOOSE))

    if sol.converged:
        report.add(_compare("condensation_energy", condensation_energy(mt, sol.delta), e_b - e_f, TOL_IDENTITY))
    else:
        report.add(_skip("condensation_energy", "needs a gap-equation solution"))

    # --- corrected state ------------------------------------------------------
    # the gamma* are formed once, for Phi and the H' Psi_B expansion
    quasi_dag = [adjoint(g) for g in quasi]
    del quasi
    corr = correction_state(mt, kernel, angles, quasi_dag, psi_b)
    psi = normalized_psi(psi_b, corr)
    report.add(_deviation("bcs_phi_orthogonal", abs(np.vdot(psi_b, corr.phi)), TOL_TIGHT))

    dk, dsum = dk_weights(mt, kernel, sol.delta)
    report.add(_overlap_check("phi_overlap_equals_half_dsum", kernel, sol, corr.overlap, dsum))

    hprime_psi_b = hprime @ psi_b
    del hprime
    report.add(_deviation("hprime_on_bcs_vanishes", abs(np.vdot(psi_b, hprime_psi_b)), TOL_IDENTITY))
    expansion = hprime_bcs_expansion(mt, kernel, angles, quasi_dag, psi_b)
    del quasi_dag
    report.add(_deviation("hprime_bcs_expansion", float(np.linalg.norm(hprime_psi_b - expansion)), TOL_IDENTITY))
    report.add(
        _compare(
            "phi_hprime_bcs_formula",
            phi_hprime_coupling_formula(mt, kernel, angles),
            np.vdot(corr.phi, hprime_psi_b),
            TOL_LOOSE,
        )
    )
    report.add(
        _compare(
            "psi_hm_expectation_formula",
            lemma_hm_expectation_formula(mt, kernel, angles, corr.overlap, ebcs),
            expectation(psi, hm, psi),
            TOL_LOOSE,
        )
    )
    del hm

    e_psi = expectation(psi, bundle.H, psi)
    denergy = delta_E_formula(mt, kernel, angles, corr.overlap)
    report.add(_compare("delta_e_formula_vs_dense", denergy, e_psi - e_b, TOL_LOOSE))

    offdiag = np.any(kernel.u != 0.0)
    if sol.converged and not sol.trivial and offdiag:
        ordered = (e_psi < e_b - STRICT_MARGIN) and (e_b < e_f - STRICT_MARGIN)
        report.add(CheckResult("energy_ordering_chain", e_psi, e_f, e_f - e_psi, STRICT_MARGIN, bool(ordered)))
    else:
        report.add(_skip("energy_ordering_chain", "needs a nontrivial gap and nonzero coupling"))

    shrink = correction_factor(dk, dsum)
    expected = 0.5 * angles.sin2t * shrink
    dev = max((abs(p - e) for p, e in zip(pair_table(bundle, psi), expected)), default=0.0)
    report.add(_deviation("corrected_pair_expectation", dev, TOL_IDENTITY))

    # --- corrected gap equation ------------------------------------------------
    new_sol = solve_new_gap(mt, kernel, **solver)
    report.add(_certificate("gap_solution_new", new_gap_residual(mt, kernel, new_sol.delta), tol, new_sol))

    # the classic twin of the corollary_new_selfconsistency row: Delta_k
    # against the dense pair expectations of Psi_B
    report.add(_deviation("new_gap_reduction", _selfconsistency(sol.delta, kernel, w_dense), 10.0 * tol))

    angles_t = new_sol.theta
    psi_bt = bcs_state(bundle, angles_t)
    quasi_t = quasi_ops(bundle, angles_t)
    _gamma_checks(report, "gamma_tilde", quasi_t, psi_bt)

    corr_t = correction_state(mt, kernel, angles_t, [adjoint(g) for g in quasi_t], psi_bt)
    psi_t = normalized_psi(psi_bt, corr_t)
    report.add(_overlap_check("new_overlap_identity", kernel, new_sol, corr_t.overlap, new_sol.dsum))

    w_t = pair_table(bundle, psi_t)
    if new_sol.converged:
        dev = _selfconsistency(new_sol.delta, kernel, w_t)
        report.add(_deviation("corollary_new_selfconsistency", dev, max(TOL_LOOSE, 10.0 * tol)))
    else:
        report.add(_skip("corollary_new_selfconsistency", "corrected equation did not converge"))

    if dense_skip:
        report.add(_skip("new_spectrum_multiset", dense_skip))
    else:
        ebcs_t = ebcs_formula(mt, angles_t, w_t)
        dev, _ = hm_spectrum_check(build_HM(bundle, new_sol.delta, w_t), mt, new_sol.delta, ebcs_t)
        report.add(_deviation("new_spectrum_multiset", dev, TOL_LOOSE))

    report.add(_deviation("ssb_witness_corrected_state", _ssb_deviation(psi_t, charge_pairs, w_t), TOL_EXPECT))
    del bundle, quasi_t, charge_pairs

    # --- ordering invariance -----------------------------------------------------
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m)
    mt_p, kernel_p = permuted_instance(mt, kernel, perm)
    sol_p = solve_gap(mt_p, kernel_p, **solver)
    bundle_p = OperatorBundle(mt_p, kernel_p)
    psi_bp = bcs_state(bundle_p, sol_p.theta)
    quasi_dag_p = [adjoint(g) for g in quasi_ops(bundle_p, sol_p.theta)]
    corr_p = correction_state(mt_p, kernel_p, sol_p.theta, quasi_dag_p, psi_bp)
    new_sol_p = solve_new_gap(mt_p, kernel_p, **solver)
    base = _physical_scalars(mt, kernel, sol, new_sol, corr)
    moved = _physical_scalars(mt_p, kernel_p, sol_p, new_sol_p, corr_p)
    report.add(_deviation("ordering_invariance", float(np.max(np.abs(base - moved))), TOL_IDENTITY))

    report.solutions = {"classic": sol, "new": new_sol}
    report.metadata = {
        "n_modes": m,
        "modes": [list(n) for n in mt.nvecs],
        "xi": mt.xi.tolist(),
        "kernel": kernel.u.tolist(),
        "solver": {**solver, "tol": tol},
        "seed": seed,
        "classic": {
            "delta": sol.delta.delta.tolist(),
            "residual_inf": sol.residual_inf,
            "iterations": sol.iterations,
            "converged": sol.converged,
            "trivial": sol.trivial,
        },
        "new": {
            "delta": new_sol.delta.delta.tolist(),
            "residual_inf": new_sol.residual_inf,
            "iterations": new_sol.iterations,
            "converged": new_sol.converged,
            "trivial": new_sol.trivial,
            "dk": new_sol.dk.tolist(),
            "dsum": new_sol.dsum,
            "max_factor_dev": new_sol.max_factor_dev,
        },
    }
    return report
