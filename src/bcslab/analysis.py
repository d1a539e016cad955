"""Closed-form identities vs brute-force matrix computation.

Every scalar produced by a formula here is paired with an independent
matrix-side evaluation (eigendecomposition of H_M block by block over its
pair sectors, explicit state vectors, `XorOp` operator application); no
check compares a formula to itself.
Every closed form reads Delta_k, E_k and the pairing angles from the one
`GapTable` of the gap it is evaluated at, and forms none of them again.
The ladder-built number operator G is diagonal in the occupation basis,
and every row that reads it reads its diagonal g: `charge_commutes_with_h`
and both number-phase covariance rows scale each entry A_rc by a function
of g_r - g_c (`diagonal_commutator_norm`, which ends in the one row sum of
every infinity norm of a pass, as `op_norm_inf` does; the CAR rows sum the
moduli of dense mask forms in `fock.car_deviation`), and the two SSB rows form
[G, B_k] state on vectors from the same g.  All five also count the
largest entry of G - diag(Re g), so a G that is not a real diagonal fails
them.
The rotation exp(i G_B) = exp(K) is exact as well: K conserves every pair
difference d_k, so `PairSectors` exponentiates it block by block over the
3^M pair sectors, and the rows that read exp(K) rotate one sector block,
or one block pair for a ladder, at a time.
An `Instance` is the `OperatorBundle` of one instance at one solver
setting: one on-demand table, in which each quantity is built from its one
`_BUILD` entry the first time a row or a printer reads it.  Beyond the
operators of the bundle (the ladders C, B_k, B*_k, h_k, v_k, G, T, H and the
identity I) it holds the diagonal `g` of G and its leak term `g_leak`, `sol`
and `new_sol`, their gap tables `gap` and `gap_t`, `sectors` (the
`PairSectors` map), the states `psi_b`, `psi`, `psi_f`, `psi_bt` and
`psi_t`, the gammas `quasi` and `quasi_t`, the corrections `corr` and
`corr_t`, the H' Psi_B `expansion`, the pair tables w_k = (state, B_k state)
`w` (of Psi_B) and `w_t` (of Psi~), H_M as `hm` and `hm_t`, H' as `hprime`,
E_BCS as `ebcs` and `ebcs_t`, and the dense energies `e_f`, `e_b` and
`e_psi`.  A name ending in _t belongs to the corrected gap equation.
`energy` and `spectrum` print from an `Instance` at the config's solver
settings, and so build only what they print.
`run_verification` bundles the checks of one instance into a deterministic
report, read from one `Instance` solved at min(tol, 1e-12).  After the
kernel_constraints row it solves both gap equations, so a solve that cannot
finish stops the pass before any stage, and then runs seven private stages
in report order; `_STAGES` names the rows that each one adds.  A `checks`
list is checked against that table before anything is built, runs only the
stages that own its rows and keeps only those rows.  A stage reads what it
needs from the `Instance`, so it never needs the stages before it.  Each
Fock operator lives only while a stage reads it, since every one costs an
array of dimension 2^(2M); a full pass releases them as follows:
  operator algebra      reads the ladders; reads G once, for g and g_leak,
                        and releases it before charge_commutes_with_h, which
                        reads g, as the covariance checks and both SSB rows
                        do;
  classic state         forms K = i G_B, read by exp(K) and the pairing
                        commutators and deleted after them, and exp(K), 6^M
                        numbers (2.2 MiB at M = 7), whose last reader is the
                        closed-form conjugation, formed before the gamma rows
                        (the mean-field conjugation when that row is
                        skipped); releases the h_k after the mean-field
                        conjugation; `quasi` lives through its CAR
                        and annihilation rows, `corr` and the `expansion`
                        (both built here, as vectors, by `quartet_sum`, which
                        applies each gamma* as psi @ gamma) and the
                        closed-form row, and is released before hm_splitting;
  mean-field splitting  builds `hm` and `hprime`; H - H_M, read by both
                        splitting rows, lives in this stage only;
  energies              reads `hm`;
  corrected state       releases `hprime` after H' Psi_B, and `hm` after
                        psi_hm_expectation_formula;
  corrected equation    `quasi_t` lives through its CAR and annihilation
                        rows and `corr_t`; `hm_t` is read by
                        new_spectrum_multiset only;
  ordering              releases every operator and `sectors`; the permuted
                        instance is a second `Instance`, given this
                        instance's ladders, which do not depend on the mode
                        table, and builds only B_k and B*_k from them.
A filtered run makes the releases of the stages it runs; releasing a
quantity that the run never built does nothing.  A released quantity is
built again by a later read, so a pass builds each one at most once only
because every release follows its last reader;
`test_run_verification_builds_each_instance_quantity_at_most_once` pins it.
The dense checks are skipped above `DENSE_MODE_CAP`, and the
(Phi, Phi) = D/2 checks are skipped when D diverges. The report also holds
the two gap solutions it verified (`solutions`), which the report files
leave out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .fock import (
    anticommutator_check,
    car_deviation,
    commutator,
    diagonal_commutator_norm,
    expectation,
    op_norm_inf,
)
from .gapsolve import (
    GapTable,
    check_solver,
    correction_factor,
    dk_weights,
    gap_residual,
    new_gap_residual,
    solve_gap,
    solve_new_gap,
)
from .hamiltonian import OperatorBundle, build_GB, build_HM, build_Hprime, couplings
from .model import Kernel, ModeTable, permuted_instance, validate_kernel
from .sectors import PairSectors
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
        """No check failed; a skipped check does not fail."""
        return not self.failures()

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


def ebcs_formula(mt: ModeTable, gap: GapTable, w) -> float:
    """Ground energy of the mean-field Hamiltonian: sum_k (xi - E + Delta w)."""
    gap.validate(mt)
    w = np.asarray(w, dtype=np.float64)
    return float(np.sum(mt.xi - gap.energy + gap.delta * w))


def free_fermi_energy(mt: ModeTable) -> float:
    """Energy of the filled Fermi sea: sum_k (xi - |xi|)."""
    return float(np.sum(mt.xi - np.abs(mt.xi)))


def condensation_energy(mt: ModeTable, gap: GapTable) -> float:
    """-1/2 sum_k (E - |xi|)^2 / E, the pairing energy gain over the normal state."""
    gap.validate(mt)
    num = (gap.energy - np.abs(mt.xi)) ** 2
    terms = np.divide(num, gap.energy, out=np.zeros_like(num), where=gap.energy > 0)
    return float(-0.5 * np.sum(terms))


def hm_spectrum_check(hm, sectors: PairSectors, gap: GapTable, ebcs: float) -> tuple:
    """(max deviation, ascending spectrum) of sigma(H_M) against the quasiparticle multiset.

    Formula side: { sum_k E_k (N_k,up + N_k,dn) + E_BCS } over all
    occupation patterns.  Matrix side: the stored entries of `hm` scattered
    into its pair-sector blocks (`PairSectors.blocks`), one stack per block
    size, and each stack diagonalized in one `eigvalsh` call.  The deviation
    also counts the largest entry coupling two sectors and ||H_M - H_M*||, so
    a matrix that is not block diagonal or not selfadjoint fails instead
    of being truncated to the triangle and blocks that `eigvalsh` reads.
    It has no size limit of its own: the largest block holds 2^M states.
    """
    mt = sectors.mt
    gap.validate(mt)
    orb_energy = np.repeat(gap.energy, 2)  # orbital j belongs to mode j//2
    idx = np.arange(mt.dim, dtype=np.int64)
    formula = np.full(mt.dim, ebcs)
    for j in range(mt.n_orbitals):
        formula += orb_energy[j] * ((idx >> j) & 1)
    blocks, leak = sectors.blocks(hm)
    spectrum = np.sort(np.concatenate([np.linalg.eigvalsh(b).ravel() for b in blocks]))
    dev = max(float(np.max(np.abs(np.sort(formula) - spectrum))), leak, op_norm_inf(hm - hm.adjoint()))
    return dev, spectrum


def delta_E_formula(mt: ModeTable, kernel: Kernel, gap: GapTable, overlap: float) -> float:
    """Energy gain of the corrected state over the paired product state.

    Both contributions are nonpositive for an attractive kernel; the result
    must match the dense difference (Psi, H Psi) - (Psi_B, H Psi_B).
    """
    c = pair_coefficients(mt, kernel, gap)
    c2 = gap.cos_t**2
    s2 = gap.sin_t**2
    cs = gap.cos_t * gap.sin_t
    norm = 1.0 + overlap
    first = np.sum(kernel.u * (np.outer(c2, c2) + np.outer(s2, s2)) * (c @ c.T)) / norm
    second = 4.0 * np.sum(kernel.u * np.outer(cs, cs) * c**2) / norm
    return float(first + second)


def _coupling_sum(mt: ModeTable, kernel: Kernel, gap: GapTable) -> float:
    """sum_{p,p'} U^2 (C^2 S'^2 + C'^2 S^2)^2 / (E_p + E_p')."""
    c = pair_coefficients(mt, kernel, gap)
    esum = gap.energy[:, None] + gap.energy[None, :]
    return float(np.sum(c**2 * esum))


def lemma_hm_expectation_formula(
    mt: ModeTable, kernel: Kernel, gap: GapTable, overlap: float, ebcs: float
) -> float:
    """(Psi, H_M Psi) = E_BCS + [sum_{p,p'} U^2 (...)^2/(E_p+E_p')] / (1 + (Phi,Phi))."""
    return ebcs + _coupling_sum(mt, kernel, gap) / (1.0 + overlap)


def phi_hprime_coupling_formula(mt: ModeTable, kernel: Kernel, gap: GapTable) -> float:
    """(Phi, H' Psi_B) = -1/2 sum_{p,p'} U^2 (...)^2 / (E_p + E_p')."""
    return -0.5 * _coupling_sum(mt, kernel, gap)


def hprime_bcs_expansion(
    mt: ModeTable, kernel: Kernel, gap: GapTable, quasi: list, psi_b: np.ndarray
) -> np.ndarray:
    """H' Psi_B = - sum_{k,k'} U_{k,k'} S_k^2 C_k'^2 gamma*4-string Psi_B, over the gammas as `quartet_sum` reads them."""
    gap.validate(mt)
    m = mt.n_modes
    s2 = gap.sin_t**2
    c2 = gap.cos_t**2
    terms = ((k, kp, -(kernel.u[k, kp] * s2[k] * c2[kp]))
             for k in range(m) for kp in range(m) if k != kp)
    return quartet_sum(mt, quasi, terms, psi_b)


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


def _ssb_deviation(inst, state, pairs) -> float:
    """max_k |(state, [G, B_k] state) + 2 (state, B_k state)| for G = diag(g), given the pair table, plus g_leak.

    [G, B_k] state is formed on vectors, as g * (B_k state) - B_k (g * state).
    """
    g = inst.g
    charged = g * state
    terms = (abs(np.vdot(state, g * (b @ state) - b @ charged) + 2.0 * p) for b, p in zip(inst.B, pairs))
    return max(terms, default=0.0) + inst.g_leak


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


def _physical_scalars(inst) -> np.ndarray:
    """Order-independent scalars of a solved instance, for the permutation check."""
    scalars = [
        ebcs_formula(inst.mt, inst.gap, 0.5 * inst.gap.sin2t),
        condensation_energy(inst.mt, inst.gap),
        delta_E_formula(inst.mt, inst.kernel, inst.gap, inst.corr.overlap),
    ]
    return np.concatenate((scalars, np.sort(inst.gap.delta), np.sort(inst.gap_t.delta)))


def _diagonal_leak(op, g) -> float:
    """Largest |entry| of op - diag(g); 0.0 when op stores nothing else."""
    rows, cols, vals = op.entries()
    return float(np.max(np.abs(vals - np.where(rows == cols, g[rows], 0.0)), initial=0.0))


def _solution_metadata(sol) -> dict:
    """The metadata block of one verified gap solution; a corrected one adds its D table."""
    block = {"delta": sol.delta.delta.tolist()}
    block.update((name, getattr(sol, name)) for name in ("residual_inf", "iterations", "converged", "trivial"))
    if sol.dk is not None:
        block.update(dk=sol.dk.tolist(), dsum=sol.dsum, max_factor_dev=sol.max_factor_dev)
    return block


# one builder per `Instance` quantity, each reading the quantities it needs
# from the instance; the operator entries of `OperatorBundle` come first
_BUILD = {
    **OperatorBundle._BUILD,
    # G commutes, conjugates and forms [G, B_k] on vectors only as its real
    # diagonal g; any other entry of it counts in all five charge rows, as the
    # leak term of `hm_spectrum_check` does
    "g": lambda s: s.G.diagonal().real,
    "g_leak": lambda s: _diagonal_leak(s.G, s.g),
    "sol": lambda s: solve_gap(s.mt, s.kernel, **s.solver),
    "new_sol": lambda s: solve_new_gap(s.mt, s.kernel, **s.solver),
    "gap": lambda s: s.sol.delta,
    "gap_t": lambda s: s.new_sol.delta,
    "sectors": lambda s: PairSectors(s.mt),
    "psi_b": lambda s: bcs_state(s, s.gap),
    "psi_bt": lambda s: bcs_state(s, s.gap_t),
    "w": lambda s: pair_table(s, s.psi_b),
    "w_t": lambda s: pair_table(s, s.psi_t),
    "quasi": lambda s: quasi_ops(s, s.gap),
    "quasi_t": lambda s: quasi_ops(s, s.gap_t),
    "corr": lambda s: correction_state(s.mt, s.kernel, s.gap, s.quasi, s.psi_b),
    "corr_t": lambda s: correction_state(s.mt, s.kernel, s.gap_t, s.quasi_t, s.psi_bt),
    "expansion": lambda s: hprime_bcs_expansion(s.mt, s.kernel, s.gap, s.quasi, s.psi_b),
    "psi": lambda s: normalized_psi(s.psi_b, s.corr),
    "psi_t": lambda s: normalized_psi(s.psi_bt, s.corr_t),
    "psi_f": fermi_vacuum,
    "hm": lambda s: build_HM(s, s.gap, s.w),
    "hm_t": lambda s: build_HM(s, s.gap_t, s.w_t),
    "hprime": lambda s: build_Hprime(s, s.gap),
    "ebcs": lambda s: ebcs_formula(s.mt, s.gap, s.w),
    "ebcs_t": lambda s: ebcs_formula(s.mt, s.gap_t, s.w_t),
    "e_f": lambda s: expectation(s.psi_f, s.H, s.psi_f),
    "e_b": lambda s: expectation(s.psi_b, s.H, s.psi_b),
    "e_psi": lambda s: expectation(s.psi, s.H, s.psi),
}


class Instance(OperatorBundle):
    """The operators, states and scalars of one instance at one solver setting.

    An `OperatorBundle` whose table also holds the states and scalars of
    `_BUILD`, under the same rule: built on first read, released by `del`.
    `solver` holds the keyword arguments of both gap solvers.
    """

    _BUILD = _BUILD

    def __init__(self, mt: ModeTable, kernel: Kernel, solver: dict, ladders: list | None = None):
        super().__init__(mt, kernel, ladders)
        self.solver = solver


# ---------------------------------------------------------------------------
# the verification stages, in report order: each adds its rows of `_STAGES`
# from the quantities of one `Instance` and releases what it read last


def _dense_skip(mt: ModeTable) -> str:
    """The reason the dense checks are skipped on this mode table, or "" when they run."""
    return f"M={mt.n_modes} above dense cap" if mt.n_modes > DENSE_MODE_CAP else ""


def _operator_algebra(report, inst) -> None:
    """CAR of the ladders; H and the ladders against the number operator G."""
    report.add(_deviation("car_relations", anticommutator_check(inst.C), 0.0))
    g, g_leak = inst.g, inst.g_leak
    del inst.G
    report.add(_deviation("charge_commutes_with_h", max(g_leak, diagonal_commutator_norm(inst.H, g)), TOL_TIGHT))
    dev_c = dev_h = g_leak
    for alpha in (0.3, 1.0, math.pi):
        phase = np.exp(1j * alpha)
        for c in inst.C:
            dev_c = max(dev_c, diagonal_commutator_norm(c, g, lambda q: np.exp(-1j * alpha * q) - phase))
        dev_h = max(dev_h, diagonal_commutator_norm(inst.H, g, lambda q: np.exp(-1j * alpha * q) - 1.0))
    report.add(_deviation("number_phase_covariance_c", dev_c, TOL_LOOSE))
    report.add(_deviation("number_phase_covariance_h", dev_h, TOL_LOOSE))


def _classic_state(report, inst) -> None:
    """The classic gap solution; Psi_B against exp(K)|0>, its pair table and SSB witness, K and the gammas."""
    mt, kernel, sol, gap = inst.mt, inst.kernel, inst.sol, inst.gap
    report.add(_certificate("gap_solution_classic", gap_residual(mt, kernel, gap), report.metadata["solver"]["tol"], sol))

    # exp(K) lives from here to its last reader, the closed-form conjugation;
    # every row that reads it also counts the entries of K that couple two sectors
    sectors = inst.sectors
    gb = build_GB(inst, gap)
    expk, k_leak = sectors.exponential(gb)
    psi_b = inst.psi_b
    dev = float(np.linalg.norm(psi_b - sectors.column(expk, 0))) + k_leak
    report.add(_deviation("bcs_product_vs_exponential", dev, TOL_IDENTITY))

    w_dense = inst.w
    dev = max((abs(p - 0.5 * s) for p, s in zip(w_dense, gap.sin2t)), default=0.0)
    report.add(_deviation("pair_expectation_half_sin2theta", dev, TOL_EXPECT))

    dev = _ssb_deviation(inst, psi_b, w_dense)
    report.add(_deviation("ssb_witness_commutator", dev, TOL_EXPECT))

    dev = 0.0
    for i in range(mt.n_modes):
        dev = max(dev, op_norm_inf(commutator(inst.h[i], gb) - 2.0 * gap.theta[i] * inst.v[i]))
        dev = max(dev, op_norm_inf(commutator(inst.v[i], gb) + 2.0 * gap.theta[i] * (inst.h[i] - inst.I)))
    report.add(_deviation("pairing_commutators", dev, TOL_TIGHT))
    del gb

    # exp(-K) A exp(K) = E^T A E for each mean-field term A, against its closed form
    dev = 0.0
    for i in range(mt.n_modes):
        xi_i, d_i = mt.xi[i], gap.delta[i]
        rhs = (
            (xi_i * gap.cos2t[i] + d_i * gap.sin2t[i]) * inst.h[i]
            + (xi_i * gap.sin2t[i] - d_i * gap.cos2t[i]) * inst.v[i]
            + (2.0 * xi_i * gap.sin_t[i] ** 2 - d_i * gap.sin2t[i]) * inst.I
        )
        dev = max(dev, sectors.conjugation_deviation(expk, xi_i * inst.h[i] - d_i * inst.v[i], rhs))
    del inst.h, rhs
    report.add(_deviation("meanfield_conjugation", dev + k_leak, TOL_LOOSE))

    # exp(K) C_j exp(-K) = E C_j E^T against gamma_j; formed before the gamma
    # rows and added in its place below, so exp(K) is gone before them
    if dense_skip := _dense_skip(mt):
        closed_form = _skip("gamma_closed_form_vs_conjugation", dense_skip)
    else:
        dev = max(sectors.conjugation_deviation(expk, c, gamma, inverse=True) for c, gamma in zip(inst.C, inst.quasi))
        closed_form = _deviation("gamma_closed_form_vs_conjugation", dev + k_leak, TOL_LOOSE)
    del expk
    _gamma_checks(report, "gamma", inst.quasi, psi_b)
    # Phi and the H' Psi_B expansion read the gammas; the corrected-state rows
    # read them, and they are formed here so the gammas are gone before hm_splitting
    inst.corr, inst.expansion
    report.add(closed_form)
    del inst.quasi


def _meanfield_splitting(report, inst) -> None:
    """H - H_M as the pair-fluctuation sum, and as H' in its expanded form."""
    w, ident = inst.w, inst.I
    # one B_k - w_k I and one B*_k - w_k I per mode, each read by every coupling of that mode
    b_w = [b - wk * ident for b, wk in zip(inst.B, w)]
    bd_w = [bd - wk * ident for bd, wk in zip(inst.Bd, w)]
    fluct = 0.0 * ident
    for k, kp, u in couplings(inst.kernel):
        fluct = fluct + u * (bd_w[kp] @ b_w[k])
    del b_w, bd_w
    # H - H_M, read by both splitting rows
    split = inst.H - inst.hm
    report.add(_deviation("hm_splitting", op_norm_inf(split - fluct), TOL_IDENTITY))
    # each large operator is released after its last reader, so the ones a
    # later stage builds do not stack on it
    del fluct
    report.add(_deviation("hprime_definition", op_norm_inf(inst.hprime - split), TOL_IDENTITY))


def _energies(report, inst) -> None:
    """E_BCS, the Fermi-sea energy and the condensation energy against dense expectations and sigma(H_M)."""
    mt, sol, gap, psi_b = inst.mt, inst.sol, inst.gap, inst.psi_b
    e_f, e_b, ebcs = inst.e_f, inst.e_b, inst.ebcs
    report.add(_compare("ebcs_formula_vs_dense_hm", ebcs, expectation(psi_b, inst.hm, psi_b), TOL_IDENTITY))
    if sol.converged:
        report.add(_compare("ebcs_formula_vs_dense_h", ebcs, e_b, TOL_IDENTITY))
    else:
        report.add(_skip("ebcs_formula_vs_dense_h", "needs a gap-equation solution"))
    report.add(_compare("fermi_vacuum_energy", free_fermi_energy(mt), e_f, TOL_IDENTITY))

    if dense_skip := _dense_skip(mt):
        report.add(_skip("hm_spectrum_multiset", dense_skip))
        report.add(_skip("hm_ground_equals_ebcs", dense_skip))
    else:
        dev, spectrum = hm_spectrum_check(inst.hm, inst.sectors, gap, ebcs)
        report.add(_deviation("hm_spectrum_multiset", dev, TOL_LOOSE))
        report.add(_compare("hm_ground_equals_ebcs", ebcs, float(spectrum[0]), TOL_LOOSE))

    if sol.converged:
        report.add(_compare("condensation_energy", condensation_energy(mt, gap), e_b - e_f, TOL_IDENTITY))
    else:
        report.add(_skip("condensation_energy", "needs a gap-equation solution"))


def _corrected_state(report, inst) -> None:
    """Phi, H' Psi_B and Psi: the correction lemma and the energy gain of Psi over Psi_B."""
    mt, kernel, sol, gap, psi_b, corr = inst.mt, inst.kernel, inst.sol, inst.gap, inst.psi_b, inst.corr
    report.add(_deviation("bcs_phi_orthogonal", abs(np.vdot(psi_b, corr.phi)), TOL_TIGHT))

    dk, dsum = dk_weights(mt, kernel, gap)
    report.add(_overlap_check("phi_overlap_equals_half_dsum", kernel, sol, corr.overlap, dsum))

    hprime_psi_b = inst.hprime @ psi_b
    del inst.hprime
    report.add(_deviation("hprime_on_bcs_vanishes", abs(np.vdot(psi_b, hprime_psi_b)), TOL_IDENTITY))
    report.add(_deviation("hprime_bcs_expansion", float(np.linalg.norm(hprime_psi_b - inst.expansion)), TOL_IDENTITY))
    report.add(
        _compare(
            "phi_hprime_bcs_formula",
            phi_hprime_coupling_formula(mt, kernel, gap),
            np.vdot(corr.phi, hprime_psi_b),
            TOL_LOOSE,
        )
    )
    report.add(
        _compare(
            "psi_hm_expectation_formula",
            lemma_hm_expectation_formula(mt, kernel, gap, corr.overlap, inst.ebcs),
            expectation(inst.psi, inst.hm, inst.psi),
            TOL_LOOSE,
        )
    )
    del inst.hm

    e_psi, e_b, e_f = inst.e_psi, inst.e_b, inst.e_f
    denergy = delta_E_formula(mt, kernel, gap, corr.overlap)
    report.add(_compare("delta_e_formula_vs_dense", denergy, e_psi - e_b, TOL_LOOSE))

    offdiag = np.any(kernel.u != 0.0)
    if sol.converged and not sol.trivial and offdiag:
        ordered = (e_psi < e_b - STRICT_MARGIN) and (e_b < e_f - STRICT_MARGIN)
        report.add(CheckResult("energy_ordering_chain", e_psi, e_f, e_f - e_psi, STRICT_MARGIN, bool(ordered)))
    else:
        report.add(_skip("energy_ordering_chain", "needs a nontrivial gap and nonzero coupling"))

    shrink = correction_factor(dk, dsum)
    expected = 0.5 * gap.sin2t * shrink
    dev = max((abs(p - e) for p, e in zip(pair_table(inst, inst.psi), expected)), default=0.0)
    report.add(_deviation("corrected_pair_expectation", dev, TOL_IDENTITY))


def _corrected_equation(report, inst) -> None:
    """The corrected gap solution, its gammas, Psi~ and the mean-field spectrum it pairs."""
    mt, kernel, new_sol, gap_t = inst.mt, inst.kernel, inst.new_sol, inst.gap_t
    tol = report.metadata["solver"]["tol"]
    report.add(_certificate("gap_solution_new", new_gap_residual(mt, kernel, gap_t), tol, new_sol))

    # the classic twin of the corollary_new_selfconsistency row: Delta_k
    # against the dense pair expectations of Psi_B
    report.add(_deviation("new_gap_reduction", _selfconsistency(inst.gap, kernel, inst.w), 10.0 * tol))

    _gamma_checks(report, "gamma_tilde", inst.quasi_t, inst.psi_bt)
    report.add(_overlap_check("new_overlap_identity", kernel, new_sol, inst.corr_t.overlap, new_sol.dsum))
    del inst.quasi_t

    if new_sol.converged:
        dev = _selfconsistency(gap_t, kernel, inst.w_t)
        report.add(_deviation("corollary_new_selfconsistency", dev, max(TOL_LOOSE, 10.0 * tol)))
    else:
        report.add(_skip("corollary_new_selfconsistency", "corrected equation did not converge"))

    if dense_skip := _dense_skip(mt):
        report.add(_skip("new_spectrum_multiset", dense_skip))
    else:
        dev, _ = hm_spectrum_check(inst.hm_t, inst.sectors, gap_t, inst.ebcs_t)
        del inst.hm_t
        report.add(_deviation("new_spectrum_multiset", dev, TOL_LOOSE))

    dev = _ssb_deviation(inst, inst.psi_t, inst.w_t)
    report.add(_deviation("ssb_witness_corrected_state", dev, TOL_EXPECT))


def _ordering(report, inst) -> None:
    """Order-independent scalars against those of a relabelled instance."""
    scalars = _physical_scalars(inst)
    # the relabelled instance reads only ladders, B_k and B*_k, and its
    # ladders are this instance's: ladder_matrix(j, M) ignores the mode table
    ladders = inst.C
    for name in (*OperatorBundle._BUILD, "sectors"):
        delattr(inst, name)
    perm = np.random.default_rng(report.metadata["seed"]).permutation(inst.mt.n_modes)
    moved = Instance(*permuted_instance(inst.mt, inst.kernel, perm), inst.solver, ladders=ladders)
    dev = float(np.max(np.abs(scalars - _physical_scalars(moved))))
    report.add(_deviation("ordering_invariance", dev, TOL_IDENTITY))


# each stage with the rows it adds, in report order; the kernel_constraints
# row precedes them all and reads the kernel alone
_STAGES = (
    (_operator_algebra, ("car_relations", "charge_commutes_with_h", "number_phase_covariance_c",
                         "number_phase_covariance_h")),
    (_classic_state, ("gap_solution_classic", "bcs_product_vs_exponential", "pair_expectation_half_sin2theta",
                      "ssb_witness_commutator", "pairing_commutators", "meanfield_conjugation", "gamma_car",
                      "gamma_annihilates_bcs", "gamma_closed_form_vs_conjugation")),
    (_meanfield_splitting, ("hm_splitting", "hprime_definition")),
    (_energies, ("ebcs_formula_vs_dense_hm", "ebcs_formula_vs_dense_h", "fermi_vacuum_energy", "hm_spectrum_multiset",
                 "hm_ground_equals_ebcs", "condensation_energy")),
    (_corrected_state, ("bcs_phi_orthogonal", "phi_overlap_equals_half_dsum", "hprime_on_bcs_vanishes",
                        "hprime_bcs_expansion", "phi_hprime_bcs_formula", "psi_hm_expectation_formula",
                        "delta_e_formula_vs_dense", "energy_ordering_chain", "corrected_pair_expectation")),
    (_corrected_equation, ("gap_solution_new", "new_gap_reduction", "gamma_tilde_car", "gamma_tilde_annihilates_bcs",
                           "new_overlap_identity", "corollary_new_selfconsistency", "new_spectrum_multiset",
                           "ssb_witness_corrected_state")),
    (_ordering, ("ordering_invariance",)),
)


def run_verification(
    mt: ModeTable,
    kernel: Kernel,
    init: float = 1.0,
    damping: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 10000,
    seed: int = 0,
    checks="all",
) -> VerificationReport:
    """Run the identity checks for one instance, in a fixed documented order.

    `checks` is "all" (or None), a list of check names or one name.  A list
    runs only the stages that own its rows and keeps only those rows; both
    gap equations are still solved, for the metadata and `solutions`.
    Check failures are recorded in the report, never raised; infrastructure
    errors (bad kernel, seed or check name, dimension cap) abort with context.
    """
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")
    # the solves below run at min(tol, 1e-12), so `tol` itself is checked here
    check_solver(init, damping, tol, max_iter)
    known = {"kernel_constraints"}.union(*(names for _, names in _STAGES))
    wanted = known if checks in ("all", None) else {checks} if isinstance(checks, str) else set(checks)
    if wanted - known:
        raise ValidationError(f"unknown check names: {sorted(wanted - known)}")
    # several identities hold exactly only at a gap-equation solution, with
    # deviations proportional to the solver residual; solving tighter than the
    # certified tolerance keeps that amplification far below the check bars
    solver = {"init": init, "damping": damping, "tol": min(tol, 1e-12), "max_iter": max_iter}
    # the stages read the certified tol and the seed from here
    report = VerificationReport(metadata={
        "n_modes": mt.n_modes, "modes": [list(n) for n in mt.nvecs], "xi": mt.xi.tolist(),
        "kernel": kernel.u.tolist(), "solver": {**solver, "tol": tol}, "seed": seed,
    })

    violations = validate_kernel(kernel, mt)
    report.add(_deviation("kernel_constraints", float(len(violations)), 0.0))
    if violations:
        raise ValidationError("kernel violates structural constraints: " + "; ".join(violations))
    inst = Instance(mt, kernel, solver)
    # both gap equations are solved before any stage, so a solve that cannot
    # finish stops the pass before a stage reads its gap
    report.solutions = {"classic": inst.sol, "new": inst.new_sol}
    for stage, names in _STAGES:
        if not wanted.isdisjoint(names):
            stage(report, inst)

    report.metadata.update((equation, _solution_metadata(sol)) for equation, sol in report.solutions.items())
    report.checks = [c for c in report.checks if c.name in wanted]
    return report
