import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
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
from bcslab import analysis, fock, hamiltonian, sectors as sector_module, states
from bcslab.cli import load_config
from bcslab.errors import ValidationError
from bcslab.fock import XorOp, commutator, expectation, ladder_matrix, vacuum_state
from bcslab.gapsolve import GapTable, solve_gap, solve_new_gap
from bcslab.hamiltonian import OperatorBundle, build_GB, build_HM, build_Hprime
from bcslab.model import Kernel, explicit_modes, separable_kernel
from bcslab.sectors import PairSectors
from bcslab.states import (
    bcs_state,
    correction_state,
    fermi_vacuum,
    normalized_psi,
    pair_coefficients,
    quartet_sum,
    quasi_ops,
)

from conftest import bundle_of, conjugate_series, dense, evolve_state, quartet_literal, random_sparse, xor_of

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def solved_pair(two_mode):
    mt, kernel = two_mode
    angles = GapTable.from_delta(mt, [1.2, 1.2])
    ops = OperatorBundle(mt, kernel)
    psi_b = bcs_state(ops, angles)
    quasi = quasi_ops(ops, angles)
    corr = correction_state(mt, kernel, angles, quasi, psi_b)
    psi = normalized_psi(psi_b, corr)
    return ops, kernel, angles, psi_b, quasi, corr, psi


def test_ebcs_pair_instance(solved_pair):
    ops, kernel, angles, psi_b, *_ = solved_pair
    w = 0.5 * angles.sin2t
    ebcs = ebcs_formula(ops.mt, angles, w)
    assert ebcs == pytest.approx(-0.08, abs=1e-14)  # 2 (1.6 - 2 + 1.2 * 0.3)
    assert expectation(psi_b, ops.H, psi_b).real == pytest.approx(ebcs, abs=1e-12)
    hm = build_HM(ops, angles, w)
    assert expectation(psi_b, hm, psi_b).real == pytest.approx(ebcs, abs=1e-12)


def test_ebcs_gapless_limits():
    mt = explicit_modes([(1, 0, 0), (-1, 0, 0)], xi_override=[0.7, 0.7])
    angles = GapTable.from_delta(mt, [0.0, 0.0])
    assert ebcs_formula(mt, angles, np.zeros(2)) == 0.0
    mt = explicit_modes([(0, 0, 0), (1, 0, 0), (-1, 0, 0)], mu=0.5)
    angles = GapTable.from_delta(mt, np.zeros(3))
    assert ebcs_formula(mt, angles, np.zeros(3)) == pytest.approx(free_fermi_energy(mt), abs=1e-14)
    assert free_fermi_energy(mt) == pytest.approx(-1.0, abs=1e-15)  # 2 xi_0 = -1


def test_hm_spectrum_pair_instance(solved_pair):
    ops, kernel, angles, psi_b, *_ = solved_pair
    mt = ops.mt
    w = 0.5 * angles.sin2t
    hm = build_HM(ops, angles, w)
    ebcs = ebcs_formula(mt, angles, w)
    dev, eigs = hm_spectrum_check(hm, PairSectors(mt), angles, ebcs)
    assert dev <= 1e-9
    assert eigs[0] == pytest.approx(-0.08, abs=1e-12)
    assert eigs[1] == pytest.approx(-0.08 + 2.0, abs=1e-12)  # one quasiparticle costs E = 2


def test_hm_spectrum_free_limit():
    mt = explicit_modes([(0, 0, 0), (1, 0, 0), (-1, 0, 0)], mu=0.5)
    gap = GapTable.from_delta(mt, np.zeros(3))
    hm = build_HM(bundle_of(mt), gap, np.zeros(3))
    ebcs = ebcs_formula(mt, gap, np.zeros(3))
    dev, _ = hm_spectrum_check(hm, PairSectors(mt), gap, ebcs)
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
    gap = GapTable.from_delta(mt, 0.5 * (delta + delta[mt.pair]))
    w = 0.5 * gap.sin2t if variant == "classic" else rng.uniform(-0.5, 0.5, size=mt.n_modes)
    return mt, gap, build_HM(bundle_of(mt), gap, w), ebcs_formula(mt, gap, w)


@pytest.mark.parametrize("variant", ["classic", "corrected"])
@pytest.mark.parametrize("name", sorted(SECTOR_INSTANCES))
def test_hm_sector_spectrum_matches_dense_oracle(name, variant):
    rng = np.random.default_rng(17)
    for _ in range(3):
        mt, gap, hm, ebcs = random_hm(SECTOR_INSTANCES[name], rng, variant)
        dev, spectrum = hm_spectrum_check(hm, PairSectors(mt), gap, ebcs)
        oracle = np.linalg.eigvalsh(dense(hm))
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
    leaky = hm + eps * (a.adjoint() @ b + b.adjoint() @ a)
    assert hm_spectrum_check(hm, PairSectors(mt), gap, ebcs)[0] <= 1e-12
    dev, _ = hm_spectrum_check(leaky, PairSectors(mt), gap, ebcs)
    assert dev >= eps > TOL_LOOSE  # the spectrum check fails


def test_number_phase_covariance_detects_g_leak(two_mode, monkeypatch):
    """A G that is not diagonal fails every row that reads its diagonal instead of being read as one."""
    mt, kernel = two_mode
    eps = 1e-6
    build = analysis._BUILD["G"]

    def planted(inst):
        # vacuum <-> orbital 0 filled, kept selfadjoint
        return build(inst) + XorOp.from_entries([0, 1], [1, 0], [eps, eps], (mt.dim, mt.dim))

    monkeypatch.setitem(analysis._BUILD, "G", planted)
    report = run_verification(mt, kernel, seed=3)
    by_name = {c.name: c for c in report.checks}
    for name in (
        "charge_commutes_with_h",
        "number_phase_covariance_c",
        "number_phase_covariance_h",
        "ssb_witness_commutator",
        "ssb_witness_corrected_state",
    ):
        assert by_name[name].deviation >= eps > TOL_LOOSE
        assert not by_name[name].passed


GAP_READERS = {
    "ebcs_formula": lambda mt, kernel, gap: ebcs_formula(mt, gap, np.zeros(mt.n_modes)),
    "condensation_energy": lambda mt, kernel, gap: condensation_energy(mt, gap),
    "hm_spectrum_check": lambda mt, kernel, gap: hm_spectrum_check(XorOp(mt.dim), PairSectors(mt), gap, 0.0),
    "pair_coefficients": pair_coefficients,
    "delta_E_formula": lambda mt, kernel, gap: delta_E_formula(mt, kernel, gap, 0.0),
    "lemma_hm_expectation_formula": lambda mt, kernel, gap: lemma_hm_expectation_formula(mt, kernel, gap, 0.0, 0.0),
    "phi_hprime_coupling_formula": phi_hprime_coupling_formula,
    "hprime_bcs_expansion": lambda mt, kernel, gap: hprime_bcs_expansion(mt, kernel, gap, [], vacuum_state(mt.n_modes)),
    "correction_state": lambda mt, kernel, gap: correction_state(mt, kernel, gap, [], vacuum_state(mt.n_modes)),
}


@pytest.mark.parametrize("reader", sorted(GAP_READERS))
def test_gap_readers_reject_a_table_of_another_mode_table(two_mode, three_mode, reader):
    """A 2-mode gap table read against a 3-mode table raises ValidationError, not an index or shape error."""
    gap = GapTable.from_delta(two_mode[0], [1.2, 1.2])
    mt, kernel = three_mode
    with pytest.raises(ValidationError, match="does not match"):
        GAP_READERS[reader](mt, kernel, gap)


def test_hm_spectrum_reads_both_triangles():
    rng = np.random.default_rng(4)
    mt, gap, hm, ebcs = random_hm(SECTOR_INSTANCES["pair"], rng, "classic")
    # the vacuum and the filled state share the sector d = (0, 0); H_M moves one pair, so
    # their entry is zero and an entry placed above the diagonal only is not selfadjoint
    eps = 1e-6
    upper = XorOp.from_entries([0], [mt.dim - 1], [eps], hm.shape)
    dev, _ = hm_spectrum_check(hm + upper, PairSectors(mt), gap, ebcs)
    assert dev >= eps > TOL_LOOSE


def test_hm_spectrum_block_size_stays_within_sector(monkeypatch):
    rng = np.random.default_rng(5)
    modes = [(0, 0, 0)] + SECTOR_INSTANCES["e1_e2"]
    mt, gap, hm, ebcs = random_hm(modes, rng, "classic")
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    dev, spectrum = hm_spectrum_check(hm, PairSectors(mt), gap, ebcs)
    assert dev <= 1e-9 and spectrum.shape == (1024,)
    assert shapes and max(s[-1] for s in shapes) <= 2**mt.n_modes


# ---------------------------------------------------------------------------
# the sector-block exponential exp(K), K = i G_B

SECTOR_GOLDENS = ["pair", "three_mode", "ac10", "six_mode", "seven_mode"]


def golden_k(name):
    """(bundle, classic angle table, K = i G_B) of a golden config."""
    cfg = load_config(str(GOLDEN / name / "config.json"))
    angles = solve_gap(cfg.mt, cfg.kernel, tol=1e-12).delta
    bundle = OperatorBundle(cfg.mt, cfg.kernel)
    return bundle, angles, build_GB(bundle, angles)


def sector_states(sectors):
    """The states of each sector, in block order."""
    return [
        sectors.order[lo : lo + (1 << z)].astype(np.int64)
        for lo, z in zip(sectors.offset, sectors.z)
    ]


@pytest.mark.parametrize("name", SECTOR_GOLDENS)
def test_sector_exponential_blocks_match_expm(name):
    # each block against scipy's expm of the block sliced from K by the sector's own states
    from scipy.linalg import expm

    bundle, _, k = golden_k(name)
    sectors = PairSectors(bundle.mt)
    expk, leak = sectors.exponential(k)
    assert leak == 0.0
    assert sum(b.size for b in expk) == 6**bundle.mt.n_modes
    blocks = [b for per_class in expk for b in per_class]
    states = sector_states(sectors)
    assert len(blocks) == len(states) == 3**bundle.mt.n_modes
    assert sorted(np.concatenate(states).tolist()) == list(range(bundle.mt.dim))
    kd = dense(k)
    worst = max(float(np.max(np.abs(e - expm(kd[np.ix_(s, s)])))) for e, s in zip(blocks, states))
    assert worst <= 1e-14


@pytest.mark.parametrize("name", SECTOR_GOLDENS)
def test_sector_exponential_columns_match_the_taylor_oracle(name):
    bundle, _, k = golden_k(name)
    sectors = PairSectors(bundle.mt)
    expk, _ = sectors.exponential(k)
    dim = bundle.mt.dim
    for j in (0, dim // 3, dim - 1):  # the vacuum, a state of another sector, the filled state
        v = np.zeros(dim)
        v[j] = 1.0
        assert np.linalg.norm(sectors.column(expk, j) - evolve_state(k, v)) <= 1e-14


@pytest.mark.parametrize("name", SECTOR_GOLDENS)
def test_sector_conjugations_match_the_series_oracle(name):
    # the two conjugations of a verification pass: E^T A E for each mean-field term, E C_j E^T for each ladder
    bundle, angles, k = golden_k(name)
    mt = bundle.mt
    sectors = PairSectors(mt)
    expk, _ = sectors.exponential(k)
    for i in range(mt.n_modes):
        a = mt.xi[i] * bundle.h[i] - angles.delta[i] * bundle.v[i]
        assert sectors.conjugation_deviation(expk, a, xor_of(conjugate_series(a, k, 1.0))) <= 1e-11
    for c in bundle.C:
        assert sectors.conjugation_deviation(expk, c, xor_of(conjugate_series(c, k, -1.0)), inverse=True) <= 1e-11


@pytest.mark.parametrize("inverse", [False, True])
def test_conjugation_deviation_is_the_norm_of_the_whole_difference(three_mode, inverse):
    # random A and Y store entries in every sector pair, so every entry that couples
    # two sectors, of the rotated operator or of the closed form, counts
    from scipy.linalg import expm

    mt, kernel = three_mode
    bundle = OperatorBundle(mt, kernel)
    k = build_GB(bundle, GapTable.from_delta(mt, [0.7, 0.4, 0.4]))
    sectors = PairSectors(mt)
    expk, _ = sectors.exponential(k)
    e = expm(dense(k))
    rng = np.random.default_rng(21 + inverse)
    for a in (bundle.C[1], xor_of(random_sparse(mt.dim, rng, density=0.05, real=True))):
        y = xor_of(random_sparse(mt.dim, rng, density=0.05, real=True))
        rotated = e @ dense(a) @ e.T if inverse else e.T @ dense(a) @ e
        norm = float(np.max(np.abs(rotated - dense(y)).sum(axis=1)))
        assert sectors.conjugation_deviation(expk, a, y, inverse=inverse) == pytest.approx(norm, rel=1e-13)


def test_sector_exponential_runs_are_exact_at_any_chunk(monkeypatch):
    bundle, angles, k = golden_k("six_mode")
    sectors = PairSectors(bundle.mt)
    expk, _ = sectors.exponential(k)
    a = bundle.mt.xi[0] * bundle.h[0] - angles.delta[0] * bundle.v[0]
    dev = sectors.conjugation_deviation(expk, a, bundle.h[0])
    # each ladder maps a sector to another, so its block pairs lie off the diagonal
    gammas = quasi_ops(bundle, angles)
    ladder = [sectors.conjugation_deviation(expk, c, g, inverse=True) for c, g in zip(bundle.C, gammas)]
    monkeypatch.setattr(sector_module, "SECTOR_CHUNK", 1)  # one block per batched call
    for one, chunked in zip(sectors.exponential(k)[0], expk):
        assert np.array_equal(one, chunked)
    assert sectors.conjugation_deviation(expk, a, bundle.h[0]) == dev
    assert [sectors.conjugation_deviation(expk, c, g, inverse=True) for c, g in zip(bundle.C, gammas)] == ladder


@pytest.mark.parametrize("name", ["three_mode", "ac10", "six_mode"])
def test_sector_numbering_follows_the_occupation_bits(name):
    # sector s is the rank of (number of d_i = 0, base-3 label of d + 1), states in a sector count up by
    # index, and z is log2 of the sector's size, each read literally from the bits of every state
    mt = load_config(str(GOLDEN / name / "config.json")).mt
    sectors = PairSectors(mt)
    keys = []
    for j in range(mt.dim):
        d = [(j >> 2 * i & 1) - (j >> 2 * mt.pair[i] + 1 & 1) for i in range(mt.n_modes)]
        keys.append((d.count(0), int("".join(str(x + 1) for x in d), 3)))
    rank = {key: r for r, key in enumerate(sorted(set(keys)))}
    assert sectors.sector.tolist() == [rank[key] for key in keys]
    size, pos = dict.fromkeys(rank, 0), []
    for key in keys:
        pos.append(size[key])
        size[key] += 1
    assert sectors.pos.tolist() == pos
    assert sectors.z.tolist() == [math.log2(size[key]) for key in sorted(rank)]


def test_sector_exponential_rejects_a_k_that_is_not_real_antisymmetric(two_mode):
    mt, kernel = two_mode
    bundle = OperatorBundle(mt, kernel)
    k = build_GB(bundle, GapTable.from_delta(mt, [1.2, 1.2]))
    sectors = PairSectors(mt)
    skew = k + XorOp.from_entries([0], [mt.dim - 1], [1e-9], k.shape)
    for bad in (bundle.H, skew):
        with pytest.raises(ValueError, match="anti-selfadjoint"):
            sectors.exponential(bad)


def test_run_verification_raises_on_a_k_that_is_not_antisymmetric(three_mode, monkeypatch):
    mt, kernel = three_mode
    build = analysis.build_GB
    monkeypatch.setattr(analysis, "build_GB", lambda ops, angles: build(ops, angles) + 1e-9 * ops.I)
    with pytest.raises(ValueError, match="anti-selfadjoint"):
        run_verification(mt, kernel, seed=3)


def test_an_inter_sector_entry_in_k_fails_every_row_that_reads_exp_k(three_mode, monkeypatch):
    mt, kernel = three_mode
    eps = 1e-6
    build = analysis.build_GB

    def planted(ops, angles):
        # the vacuum and one filled orbital differ in d, so the entry couples two sectors; K stays antisymmetric
        k = build(ops, angles)
        return k + XorOp.from_entries([0, 1], [1, 0], [eps, -eps], k.shape)

    monkeypatch.setattr(analysis, "build_GB", planted)
    by_name = {c.name: c for c in run_verification(mt, kernel, seed=3).checks}
    for name in ("bcs_product_vs_exponential", "meanfield_conjugation", "gamma_closed_form_vs_conjugation"):
        assert by_name[name].deviation >= eps > by_name[name].tolerance
        assert not by_name[name].passed


def test_an_inter_sector_entry_in_a_closed_form_fails_its_row(three_mode, monkeypatch):
    # gamma_0 lowers d_0, so an entry from the vacuum to orbital 0 filled, which raises it,
    # lies in a sector pair that neither gamma_0 nor E C_0 E^T reaches
    mt, kernel = three_mode
    eps = 1e-6
    quasi = analysis.quasi_ops

    def planted(ops, angles):
        out = quasi(ops, angles)
        out[0] = out[0] + XorOp.from_entries([1], [0], [eps], out[0].shape)
        return out

    monkeypatch.setattr(analysis, "quasi_ops", planted)
    row = {c.name: c for c in run_verification(mt, kernel, seed=3).checks}["gamma_closed_form_vs_conjugation"]
    assert row.deviation >= eps > row.tolerance
    assert not row.passed


def test_condensation_energy_values(two_mode):
    mt, kernel = two_mode
    assert condensation_energy(mt, GapTable.from_delta(mt, np.zeros(2))) == 0.0
    cond = condensation_energy(mt, GapTable.from_delta(mt, np.array([1.2, 1.2])))
    assert cond == pytest.approx(-0.08, abs=1e-15)  # -1/2 * 2 * 0.4^2 / 2
    # dense oracle at the solution
    angles = GapTable.from_delta(mt, [1.2, 1.2])
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
    psi_b = bcs_state(ops, sol.delta)
    psi_f = fermi_vacuum(ops)
    dense = (expectation(psi_b, h, psi_b) - expectation(psi_f, h, psi_f)).real
    assert condensation_energy(mt, sol.delta) == pytest.approx(dense, abs=1e-10)


def test_delta_e_pair_instance(solved_pair):
    ops, kernel, angles, psi_b, quasi, corr, psi = solved_pair
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
    angles = GapTable.from_delta(mt, [1.2, 1.2])
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
        psi_b = bcs_state(ops, sol.delta)
        corr = correction_state(mt, kernel, sol.delta, quasi_ops(ops, sol.delta), psi_b)
        psi = normalized_psi(psi_b, corr)
        de = delta_E_formula(mt, kernel, sol.delta, corr.overlap)
        dense = (expectation(psi, h, psi) - expectation(psi_b, h, psi_b)).real
        assert de == pytest.approx(dense, abs=1e-9)


def test_hm_expectation_formula(solved_pair):
    ops, kernel, angles, psi_b, quasi, corr, psi = solved_pair
    mt = ops.mt
    w = 0.5 * angles.sin2t
    hm = build_HM(ops, angles, w)
    ebcs = ebcs_formula(mt, angles, w)
    predicted = lemma_hm_expectation_formula(mt, kernel, angles, corr.overlap, ebcs)
    assert predicted == pytest.approx(-0.08 + 0.2592 / 1.0324, abs=1e-14)
    assert expectation(psi, hm, psi).real == pytest.approx(predicted, abs=1e-9)


def test_hprime_checks_pair_instance(solved_pair):
    ops, kernel, angles, psi_b, quasi, corr, psi = solved_pair
    mt = ops.mt
    hp = build_Hprime(ops, angles)
    assert abs(expectation(psi_b, hp, psi_b)) <= 1e-12
    coupling = np.vdot(corr.phi, hp @ psi_b).real
    assert coupling == pytest.approx(-0.1296, abs=1e-12)
    assert phi_hprime_coupling_formula(mt, kernel, angles) == pytest.approx(-0.1296, abs=1e-14)
    expansion = hprime_bcs_expansion(mt, kernel, angles, quasi, psi_b)
    assert np.linalg.norm(hp @ psi_b - expansion) <= 1e-10


def test_hprime_checks_random_instance(three_mode):
    mt, kernel = three_mode
    sol = solve_gap(mt, kernel, tol=1e-12)
    angles = sol.delta
    ops = OperatorBundle(mt, kernel)
    psi_b = bcs_state(ops, angles)
    quasi = quasi_ops(ops, angles)
    corr = correction_state(mt, kernel, angles, quasi, psi_b)
    hp = build_Hprime(ops, angles)
    assert abs(expectation(psi_b, hp, psi_b)) <= 1e-10
    assert np.vdot(corr.phi, hp @ psi_b).real == pytest.approx(
        phi_hprime_coupling_formula(mt, kernel, angles), abs=1e-9
    )
    expansion = hprime_bcs_expansion(mt, kernel, angles, quasi, psi_b)
    assert np.linalg.norm(hp @ psi_b - expansion) <= 1e-10


def test_ssb_witness_values(solved_pair):
    # (state, [G, B_k] state): zero on the vacuum, -2 (Psi_B, B_k Psi_B) = -0.6 on Psi_B
    ops, kernel, angles, psi_b, quasi, corr, psi = solved_pair
    charge_pair = commutator(ops.G, ops.B[0])
    vac = vacuum_state(ops.mt.n_modes)
    assert expectation(vac, charge_pair, vac) == 0.0
    val = expectation(psi_b, charge_pair, psi_b)
    assert val.real == pytest.approx(-0.6, abs=1e-12)
    assert abs(val.imag) <= 1e-14


def test_ssb_witness_corrected_state(two_mode):
    mt, kernel = two_mode
    nsol = solve_new_gap(mt, kernel, tol=1e-12)
    angles = nsol.delta
    ops = OperatorBundle(mt, kernel)
    psi_bt = bcs_state(ops, angles)
    corr = correction_state(mt, kernel, angles, quasi_ops(ops, angles), psi_bt)
    psi_t = normalized_psi(psi_bt, corr)
    for i in range(2):
        witness = expectation(psi_t, commutator(ops.G, ops.B[i]), psi_t)
        pair_val = expectation(psi_t, ops.B[i], psi_t)
        assert abs(witness + 2.0 * pair_val) <= 1e-11
        assert abs(witness) > 0.1  # symmetry is broken at the solution


def selfconsistency_residual(mt, kernel, nsol):
    """max_k |Delta~_k + sum_k' U_{k,k'} (Psi~, B_k' Psi~)|, with Psi~ built from the corrected solution."""
    ops = OperatorBundle(mt, kernel)
    psi_bt = bcs_state(ops, nsol.delta)
    corr = correction_state(mt, kernel, nsol.delta, quasi_ops(ops, nsol.delta), psi_bt)
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
    psi_b = bcs_state(ops, sol.delta)
    corr = correction_state(mt, kernel, sol.delta, quasi_ops(ops, sol.delta), psi_b)
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
    # the stage table, which a checks list is resolved against, names the same rows in the same order
    assert ["kernel_constraints", *(name for _, names in analysis._STAGES for name in names)] == EXPECTED_CHECKS
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
    """The M = 7 golden pass allocates at most 12 MiB at its peak.

    With int64 sparse indices it peaks near 37.5 MiB. int32 indices bring it
    near 26 MiB, and releasing each large operator after its last reader near
    20.3 MiB, in `hm_splitting`. Holding each operator only while a stage reads
    it brings it to 14.95 MiB: G and the h_k released after their last
    readers, Phi and the H' Psi_B expansion formed before `hm_splitting` from
    transposed views of the gammas, one creator at a time in `car_deviation`,
    a mean-field series stack released before the next, and only the pair
    operators for the permuted instance. The sector-block exp(K) in place of
    the commutator series, and the SSB rows read on vectors in place of the
    [G, B_k] table, bring it to 13.84 MiB. The XOR-diagonal CAR check moves
    the peak into the gamma CAR rows, whose 28 mask vectors hold 3.5 MiB:
    15.53 MiB. With every operator an `XorOp`, no sum keeps spare room for
    its addends (H - H_M and T did as scipy CSR arrays), and the peak, still
    in the gamma CAR rows, is 14.58 MiB (13.60 MiB once every row-ordered read
    of an operator kept its sorted copy). A CAR check that holds the dense
    forms of one operator pair at a time, and row-ordered reads of aligned
    row blocks in place of a sorted copy of the whole operator, bring it to
    9.34 MiB, now in `PairSectors.conjugation_deviation` for the meanfield_conjugation row.
    """
    cfg = load_config(str(Path(__file__).parent / "golden" / "seven_mode" / "config.json"))
    tracemalloc.start()
    try:
        report = run_verification(cfg.mt, cfg.kernel, seed=cfg.seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_passed
    assert peak < 12 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_gamma_car_on_the_seven_mode_golden_holds_one_operator_pair():
    """The gamma CAR row of the M = 7 golden, bit for bit, allocating at most 3 MiB.

    Its 14 gammas hold 28 mask vectors of 128 KiB; with every dense form made
    up front the check allocated 6.38 MiB, and with the forms of one pair
    (j, j') at a time and its other vectors in work vectors made once, 2.63 MiB.
    """
    cfg = load_config(str(GOLDEN / "seven_mode" / "config.json"))
    quasi = analysis.Instance(cfg.mt, cfg.kernel, {**cfg.solver, "tol": min(cfg.tol, 1e-12)}).quasi
    rows = json.loads((GOLDEN / "seven_mode" / "report.json").read_text())["checks"]
    golden = next(row["brute_value"] for row in rows if row["name"] == "gamma_car")
    tracemalloc.start()
    try:
        dev = fock.car_deviation(quasi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dev == golden
    assert peak <= 3 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_run_verification_peak_memory_on_the_six_mode_golden():
    """The M = 6 golden pass allocates at most 5.5 MiB at its peak.

    While the commutator series ran in row stacks of two operators of dim
    4096, it peaked near 5.26 MiB (5.03 MiB with one operator per stack), and
    4.62 MiB once each operator lived only while a stage read it; the
    sector-block exp(K) brings it to 3.44 MiB, and the XOR-diagonal CAR check,
    whose gamma forms hold 24 vectors of dim 4096, to 3.62 MiB; with every
    operator an `XorOp` it peaks at 3.28 MiB.
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

    Unstacked it peaked near 1.2 MiB.  The 4096-row stacks of the series and
    the CAR check (four operators at dim 1024) brought it near 1.6 MiB, the
    8192-row stacks (eight operators) near 1.85 MiB, and 16384-row stacks
    near 2.1 MiB.  With the sector-block exp(K) in place of the series, and
    8192-row CAR stacks, it peaks near 1.22 MiB; the XOR-diagonal CAR check,
    which stacks nothing, brings it to 0.84 MiB, and every operator an
    `XorOp` to 0.77 MiB.
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


def test_run_verification_builds_each_ladder_once(monkeypatch):
    """One set of 2M ladders per pass: the instance's, which the CAR check and the permuted instance read.

    14 `ladder_matrix` calls on the seven_mode golden; a CAR check with a
    set of its own would make 28, and a bundle for the permuted instance 42.
    """
    cfg = load_config(str(Path(__file__).parent / "golden" / "seven_mode" / "config.json"))
    built = []
    original = fock.ladder_matrix

    def counted(j, n_modes):
        built.append(j)
        return original(j, n_modes)

    for name, module in list(sys.modules.items()):
        if name.startswith("bcslab") and getattr(module, "ladder_matrix", None) is original:
            monkeypatch.setattr(module, "ladder_matrix", counted)
    report = run_verification(cfg.mt, cfg.kernel, seed=cfg.seed)
    assert report.all_passed
    assert sorted(built) == list(range(cfg.mt.n_orbitals)) == list(range(14))


@pytest.mark.parametrize("instance", ["three_mode", "seven_mode"])
def test_run_verification_builds_each_instance_quantity_at_most_once(instance, monkeypatch):
    """A pass reads every quantity of its two `Instance`s through one build each.

    A release point placed before a later reader would rebuild the quantity
    silently; this counts every `_BUILD` call per instance, operators
    included.  The M = 3 pass builds all names on its own instance, and the
    M = 7 pass all but the corrected H_M and E_BCS, which only its skipped
    dense row reads.  The permuted instance solves, builds B_k and B*_k on
    the ladders it is given, Psi_B, its gammas and Phi.
    """
    cfg = load_config(str(GOLDEN / instance / "config.json"))
    built = []  # (instance, name); holding the instances keeps their ids apart

    def counting(name, build):
        def counted(inst):
            built.append((inst, name))
            return build(inst)

        return counted

    for name, build in list(analysis._BUILD.items()):
        monkeypatch.setitem(analysis._BUILD, name, counting(name, build))
    report = run_verification(cfg.mt, cfg.kernel, seed=cfg.seed)
    assert report.all_passed
    keys = [(id(inst), name) for inst, name in built]
    assert len(keys) == len(set(keys))
    own, moved = built[0][0], built[-1][0]
    assert own is not moved and {inst for inst, _ in built} == {own, moved}
    names = {name for inst, name in built if inst is own}
    skipped = {"hm_t", "ebcs_t"} if cfg.mt.n_modes > analysis.DENSE_MODE_CAP else set()
    assert names == set(analysis._BUILD) - skipped
    permuted = {name for inst, name in built if inst is moved}
    assert permuted == {"B", "Bd", "sol", "new_sol", "gap", "gap_t", "quasi", "psi_b", "corr"}


def test_run_verification_forms_each_pair_operator_once(three_mode, monkeypatch):
    """One K = i G_B per pass, and each B*_k formed once, by the bundle, instead of at every reader."""
    mt, kernel = three_mode
    originals = {"build_GB": hamiltonian.build_GB, "adjoint": XorOp.adjoint}
    calls = dict.fromkeys(originals, 0)

    def counting(fn):
        def counted(*args):
            calls[fn] += 1
            return originals[fn](*args)

        return counted

    for name, module in list(sys.modules.items()):
        if name.startswith("bcslab") and getattr(module, "build_GB", None) is originals["build_GB"]:
            monkeypatch.setattr(module, "build_GB", counting("build_GB"))
    monkeypatch.setattr(XorOp, "adjoint", counting("adjoint"))
    report = run_verification(mt, kernel, seed=3)
    assert report.all_passed
    assert calls["build_GB"] == 1
    # 116 calls when each reader formed its own B*_k (32 of them); the two instances form one per mode
    assert 0 < calls["adjoint"] <= 116 - 32 + 2 * mt.n_modes


def test_run_verification_forms_each_gamma_dag_once(three_mode, monkeypatch):
    """No gamma is adjointed in a pass: Phi and H' Psi_B apply each gamma* as the transposed product psi @ gamma.

    `car_deviation` reads each gamma* from the dense mask form of its gamma,
    so no gamma of the classic, corrected or permuted instance goes through
    `adjoint`.  With the CAR row stacks each classic and corrected gamma was
    adjointed once there, once more while the quartets read `adjoint`
    copies, and the classic ones three times when Phi and the expansion each
    formed their own gamma*.
    """
    mt, kernel = three_mode
    gammas, adjointed = [], []  # held, so no id is reused during the pass
    originals = {"quasi_ops": states.quasi_ops, "adjoint": XorOp.adjoint}

    def quasi_ops(*args):
        out = originals["quasi_ops"](*args)
        gammas.extend(out)
        return out

    def adjoint(a):
        adjointed.append(a)
        return originals["adjoint"](a)

    for name, module in list(sys.modules.items()):
        if name.startswith("bcslab") and getattr(module, "quasi_ops", None) is originals["quasi_ops"]:
            monkeypatch.setattr(module, "quasi_ops", quasi_ops)
    monkeypatch.setattr(XorOp, "adjoint", adjoint)
    report = run_verification(mt, kernel, seed=3)
    assert report.all_passed
    # classic, corrected and permuted angle tables, in that order
    n = mt.n_orbitals
    assert len(gammas) == 3 * n
    times = [sum(a is g for a in adjointed) for g in gammas]
    assert times == [0] * (3 * n)


def test_run_verification_releases_g_and_h_and_builds_pair_operators_for_the_permutation(three_mode, monkeypatch):
    """G and the h_k are gone before the gammas and never rebuilt; the permuted instance builds pair operators only.

    The own instance's G and h_k are released after their last readers (the
    covariance rows and the mean-field conjugation), so every later stage
    sees neither and no later read builds them again.  The permuted
    instance reads the own instance's ladders and builds B_k and B*_k from
    them: no h, v, G, T, H or I.  Presence is read from `vars()`, since
    `hasattr` would build the entry.
    """
    mt, kernel = three_mode
    built, ladders, seen = [], [], []  # (instance, name) per build; the built ladder lists; (reader, G held, h held)

    def counting(name, build):
        def counted(inst):
            built.append((inst, name))
            value = build(inst)
            if name == "C":
                ladders.append(value)
            return value

        return counted

    def watching(fn):
        def watched(ops, *args):
            if ops is built[0][0]:
                seen.append((fn.__name__, "G" in vars(ops), "h" in vars(ops)))
            return fn(ops, *args)

        return watched

    for name, build in list(analysis._BUILD.items()):
        monkeypatch.setitem(analysis._BUILD, name, counting(name, build))
    for name in ("quasi_ops", "build_HM", "build_Hprime", "pair_table"):
        monkeypatch.setattr(analysis, name, watching(getattr(analysis, name)))
    report = run_verification(mt, kernel, seed=3)
    assert report.all_passed
    own, moved = built[0][0], built[-1][0]
    assert own is not moved and {inst for inst, _ in built} == {own, moved}
    # G, the h_k and T are each built once, by their own entries, and the h_k never after their release
    own_built = [name for inst, name in built if inst is own]
    assert own_built.count("G") == own_built.count("h") == own_built.count("T") == 1
    assert len(ladders) == 1
    # every reader from the classic gammas on: both gamma lists, both H_M, H' and two pair tables
    names = [name for name, _, _ in seen]
    assert names.count("quasi_ops") == 2 and names.count("build_HM") == 2 and names.count("build_Hprime") == 1
    late = seen[names.index("quasi_ops"):]
    assert [name for name, _, _ in late].count("pair_table") == 2
    assert not any(has_g or has_h for _, has_g, has_h in late)
    operators = {"h", "v", "G", "T", "H", "I"}
    assert not operators & {name for inst, name in built if inst is moved}
    assert not operators & set(vars(moved))
    assert moved.mt is not own.mt and len(vars(moved)["C"]) == mt.n_orbitals
    assert all(a is b for a, b in zip(vars(moved)["C"], ladders[0]))


def _gamma_dag_routes(mt, kernel, angles, quasi, psi):
    """quartet_sum, correction_state and hprime_bcs_expansion, and the literal quartet over scipy transposes."""
    m = mt.n_modes
    rng = np.random.default_rng(m)
    terms = [(p, pp, rng.standard_normal()) for p in range(m) for pp in range(m)]
    coeffs = pair_coefficients(mt, kernel, angles)
    pairs = [(p, pp, coeffs[p, pp]) for p in range(m) for pp in range(p + 1, m)]
    s2, c2 = angles.sin_t**2, angles.cos_t**2
    expansion = [(k, kp, -(kernel.u[k, kp] * s2[k] * c2[kp])) for k in range(m) for kp in range(m) if k != kp]
    corr = correction_state(mt, kernel, angles, quasi, psi)
    package = (
        quartet_sum(mt, quasi, terms, psi),
        corr.phi,
        corr.overlap,
        hprime_bcs_expansion(mt, kernel, angles, quasi, psi),
    )
    phi = quartet_literal(mt, quasi, pairs, psi)
    literal = (
        quartet_literal(mt, quasi, terms, psi),
        phi,
        float(np.vdot(phi, phi)),
        quartet_literal(mt, quasi, expansion, psi),
    )
    return package, literal


@pytest.mark.parametrize("unsorted", [False, True])
def test_gamma_dag_views_equal_adjoint_copies_on_random_operators(three_mode, unsorted):
    # psi @ g adds each output entry over ascending row of g, as the CSR copy of g.T adds it,
    # also when g is made from entries listed in reverse order, so both routes give the same bits
    mt, kernel = three_mode
    rng = np.random.default_rng(11 + unsorted)
    quasi = []
    for _ in range(mt.n_orbitals):
        coo = random_sparse(mt.dim, rng, density=0.2, real=True).tocoo()
        flip = slice(None, None, -1) if unsorted else slice(None)
        quasi.append(XorOp.from_entries(coo.row[flip], coo.col[flip], coo.data[flip], coo.shape))
    assert all(len(g.terms) > 2 for g in quasi)  # three or more masks meet in the columns
    psi = rng.standard_normal(mt.dim)
    angles = GapTable.from_delta(mt, [0.7, 0.4, 0.4])
    package, literal = _gamma_dag_routes(mt, kernel, angles, quasi, psi)
    for a, b in zip(package, literal):
        assert np.any(a != 0)
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name", ["pair", "three_mode", "ac10"])
def test_gamma_dag_views_equal_adjoint_copies_on_the_goldens(name):
    cfg = load_config(str(GOLDEN / name / "config.json"))
    mt, kernel = cfg.mt, cfg.kernel
    sol = solve_gap(mt, kernel, tol=1e-12)
    ops = OperatorBundle(mt, kernel)
    psi_b = bcs_state(ops, sol.delta)
    package, literal = _gamma_dag_routes(mt, kernel, sol.delta, quasi_ops(ops, sol.delta), psi_b)
    assert package[2] > 0.0  # a nonzero Phi
    for a, b in zip(package, literal):
        assert np.array_equal(a, b)


# ROADMAP item 2: GapTable.from_delta takes cos_t from (1 + cos2t)/2, which
# rounds to exactly 0 for xi < 0 at a near-trivial gap, while sin2t does not.
# With the default solver settings the driver stops at Delta_0 = 1.8e-11 and
# the three rows read 78%, 61% and 61% of their bars; from init 0.5 with
# damping 0.85 it stops at Delta_0 = 3.2e-11, where they fail.
COS_T_ZERO_ROWS = {"pair_expectation_half_sin2theta", "hm_splitting", "hprime_definition"}


@pytest.fixture(scope="module")
def cos_t_zero_report():
    mt = explicit_modes(
        [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)],
        xi_override=[-1.156, 0.28, 0.28, 1.928, 1.928],
    )
    u = np.zeros((5, 5))
    for i, j, value in [(0, 1, -0.147), (0, 2, -0.147), (0, 3, -1.699), (0, 4, -1.699),
                        (1, 4, -0.326), (2, 3, -0.326), (3, 4, -0.648)]:
        u[i, j] = u[j, i] = value
    return run_verification(mt, Kernel(u=u), init=0.5, damping=0.85)


def test_cos_t_zero_instance_fails_no_row_beyond_the_known_three(cos_t_zero_report):
    assert cos_t_zero_report.metadata["classic"]["trivial"]
    assert {c.name for c in cos_t_zero_report.failures()} <= COS_T_ZERO_ROWS


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="cos_t = 0 at xi < 0 and a near-trivial gap (ROADMAP item 2)")
def test_cos_t_zero_instance_passes_every_row(cos_t_zero_report):
    assert [c.name for c in cos_t_zero_report.failures()] == []
