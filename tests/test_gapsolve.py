import json
import math
from dataclasses import replace

import numpy as np
import pytest

from bcslab.cli import main
from bcslab.errors import ConvergenceError, ValidationError
from bcslab.gapsolve import (
    EPS_GUARD,
    GapTable,
    correction_factor,
    dk_weights,
    gap_residual,
    new_gap_residual,
    solve_gap,
    solve_new_gap,
)
from bcslab.model import Kernel, build_lambda, explicit_modes, separable_kernel

from conftest import solve_literal


def test_theta_three_four_five(two_mode):
    mt, _ = two_mode
    gap = GapTable.from_delta(mt, np.array([1.2, 1.2]))
    assert np.allclose(gap.sin2t, 0.6, atol=1e-15)
    assert np.allclose(gap.cos2t, 0.8, atol=1e-15)
    assert np.allclose(gap.energy, 2.0, atol=1e-15)
    # cached half-angle values are consistent
    assert np.allclose(2.0 * gap.sin_t * gap.cos_t, gap.sin2t, atol=1e-15)
    assert np.allclose(gap.cos_t**2 - gap.sin_t**2, gap.cos2t, atol=1e-15)


def test_theta_gapless_conventions():
    mt = explicit_modes([(1, 0, 0), (-1, 0, 0)], xi_override=[-1.0, -1.0])
    gap = GapTable.from_delta(mt, np.zeros(2))
    assert np.all(gap.theta == 0.5 * math.pi)
    mt = explicit_modes([(1, 0, 0), (-1, 0, 0)], xi_override=[1.0, 1.0])
    gap = GapTable.from_delta(mt, np.zeros(2))
    assert np.all(gap.theta == 0.0)
    mt = explicit_modes([(1, 0, 0), (-1, 0, 0)], xi_override=[0.0, 0.0])
    gap = GapTable.from_delta(mt, np.zeros(2))
    assert np.all(gap.theta == 0.5 * math.pi)
    assert np.all(gap.cos2t == -1.0)


def test_theta_ratio_invariant_random():
    rng = np.random.default_rng(31)
    mt = explicit_modes([(0, 0, 0), (1, 0, 0), (-1, 0, 0)], mu=rng.uniform(0.2, 1.0))
    for _ in range(10):
        d = rng.uniform(0.0, 3.0, size=2)
        gap = GapTable.from_delta(mt, [d[0], d[1], d[1]])
        energy = np.hypot(mt.xi, gap.delta)
        assert np.array_equal(gap.energy, energy)
        assert np.allclose(gap.sin2t * energy, gap.delta, atol=1e-14)
        assert np.allclose(gap.cos2t * energy, mt.xi, atol=1e-14)
        assert np.all((0.0 <= gap.theta) & (gap.theta <= 0.5 * math.pi))


def test_gap_table_validation(two_mode):
    mt, _ = two_mode
    with pytest.raises(ValidationError, match="nonnegative"):
        GapTable.from_delta(mt, [-1.0, -1.0])
    with pytest.raises(ValidationError, match="Delta"):
        GapTable.from_delta(mt, [1.0, 2.0])
    with pytest.raises(ValidationError, match="1 entries for 2 modes"):
        GapTable.from_delta(mt, [1.0])
    # a table checks against the mode table of its consumer
    gap = GapTable.from_delta(mt, [1.2, 1.2])
    gap.validate(mt)
    three = explicit_modes([(0, 0, 0), (1, 0, 0), (-1, 0, 0)])
    with pytest.raises(ValidationError, match="does not match"):
        gap.validate(three)
    with pytest.raises(ValidationError, match="theta"):
        replace(gap, theta=np.array([0.1, 0.5])).validate(mt)


def test_residual_zero_gap(two_mode):
    mt, kernel = two_mode
    assert np.all(gap_residual(mt, kernel, GapTable.from_delta(mt, np.zeros(2))) == 0.0)


def test_residual_at_solution(two_mode):
    mt, kernel = two_mode
    r = gap_residual(mt, kernel, GapTable.from_delta(mt, np.array([1.2, 1.2])))
    assert np.max(np.abs(r)) <= 1e-15


def test_residual_off_solution_arithmetic(two_mode):
    mt, kernel = two_mode
    r = gap_residual(mt, kernel, GapTable.from_delta(mt, np.ones(2)))
    expected = 1.0 - 2.0 / math.sqrt(2.56 + 1.0)
    assert np.allclose(r, expected, atol=1e-15)
    assert expected == pytest.approx(-0.06, abs=1e-4)


def test_solve_pair_instance_closed_form(two_mode):
    mt, kernel = two_mode
    sol = solve_gap(mt, kernel, init=1.0, damping=1.0, tol=1e-13)
    assert sol.converged and not sol.trivial
    assert np.max(np.abs(sol.delta.delta - 1.2)) <= 1e-12
    assert sol.iterations < 200
    # independent residual certificate
    assert np.max(np.abs(gap_residual(mt, kernel, sol.delta))) <= 1e-13


def test_solve_subcritical_reports_trivial(two_mode):
    mt, _ = two_mode
    weak = Kernel(u=np.array([[0.0, -2.0], [-2.0, 0.0]]))  # g/2 = 1 < |xi|
    sol = solve_gap(mt, weak)
    assert sol.converged and sol.trivial
    assert np.max(sol.delta.delta) < 1e-8


def test_solve_zero_kernel_immediate(two_mode):
    mt, _ = two_mode
    sol = solve_gap(mt, Kernel(u=np.zeros((2, 2))))
    assert sol.converged and sol.trivial
    assert sol.iterations == 0
    assert np.all(sol.delta.delta == 0.0)


def test_solver_option_validation(two_mode):
    mt, kernel = two_mode
    with pytest.raises(ValidationError):
        solve_gap(mt, kernel, init=0.0)
    with pytest.raises(ValidationError):
        solve_gap(mt, kernel, damping=0.0)
    with pytest.raises(ValidationError):
        solve_gap(mt, kernel, damping=1.5)
    with pytest.raises(ValidationError):
        solve_gap(mt, kernel, tol=-1.0)
    for bad in (
        {"init": math.inf}, {"damping": math.nan}, {"tol": math.nan}, {"tol": math.inf},
        {"max_iter": 0}, {"max_iter": -5}, {"max_iter": 10.5}, {"max_iter": 10.0},
        {"max_iter": True}, {"max_iter": np.bool_(True)},
        {"init": True}, {"init": np.bool_(True)}, {"damping": True}, {"damping": np.bool_(True)},
        {"tol": True}, {"tol": np.bool_(True)},
    ):
        for solve in (solve_gap, solve_new_gap):
            with pytest.raises(ValidationError):
                solve(mt, kernel, **bad)
    for solve in (solve_gap, solve_new_gap):
        assert solve(mt, kernel, max_iter=np.int64(500)).converged


def test_nonfinite_iterate_raises_convergence_error(two_mode):
    mt, _ = two_mode
    huge = Kernel(u=np.array([[0.0, -1e200], [-1e200, 0.0]]))  # U^2 overflows in D_k
    with pytest.raises(ConvergenceError, match="non-finite"):
        solve_new_gap(mt, huge)


def test_solution_residual_matches_public_residual(three_mode):
    mt, kernel = three_mode
    sol = solve_gap(mt, kernel)
    assert sol.residual_inf == np.max(np.abs(gap_residual(mt, kernel, sol.delta)))
    nsol = solve_new_gap(mt, kernel)
    assert nsol.residual_inf == np.max(np.abs(new_gap_residual(mt, kernel, nsol.delta)))


def test_solution_symmetric_exactly(three_mode):
    mt, kernel = three_mode
    sol = solve_gap(mt, kernel)
    assert np.all(sol.delta.delta == sol.delta.delta[mt.pair])
    nsol = solve_new_gap(mt, kernel)
    assert np.all(nsol.delta.delta == nsol.delta.delta[mt.pair])


def test_decoupled_modes_stay_gapless():
    # shell excludes the origin: its kernel row is zero, so Delta_0 stays 0
    mt = explicit_modes([(0, 0, 0), (1, 0, 0), (-1, 0, 0)], mu=0.5)
    kernel = separable_kernel(mt, 4.0, shell=lambda kn: kn > 0.5)
    sol = solve_gap(mt, kernel)
    assert sol.converged and not sol.trivial
    assert sol.delta.delta[0] == 0.0
    assert np.all(sol.delta.delta[1:] > 0.1)


def test_unconverged_returns_best_iterate(two_mode):
    mt, kernel = two_mode
    sol = solve_gap(mt, kernel, max_iter=3, damping=0.5)
    assert not sol.converged
    assert sol.residual_inf > 1e-10
    assert np.all(sol.delta.delta > 0)


def test_dk_weights_pair_instance(two_mode):
    mt, kernel = two_mode
    dk, dsum = dk_weights(mt, kernel, GapTable.from_delta(mt, np.array([1.2, 1.2])))
    assert np.allclose(dk, 0.0324, atol=1e-15)
    assert dsum == pytest.approx(0.0648, abs=1e-15)
    factor = correction_factor(dk, dsum)
    assert np.allclose(factor, 1.0 - 0.1296 / 2.0648, atol=1e-12)
    assert np.all(dk >= 0)


def test_dk_weights_zero_kernel(two_mode):
    mt, _ = two_mode
    dk, dsum = dk_weights(mt, Kernel(u=np.zeros((2, 2))), GapTable.from_delta(mt, np.array([1.2, 1.2])))
    assert np.all(dk == 0) and dsum == 0
    assert np.all(correction_factor(dk, dsum) == 1.0)


def test_solve_new_gap_pair_instance(two_mode):
    mt, kernel = two_mode
    nsol = solve_new_gap(mt, kernel, damping=1.0, tol=1e-12)
    assert nsol.converged and not nsol.trivial
    assert np.all(nsol.delta.delta > 0)
    assert np.all(nsol.delta.delta < 1.2)  # shrunken coupling
    assert np.max(np.abs(new_gap_residual(mt, kernel, nsol.delta))) <= 1e-10
    assert nsol.dk is not None and nsol.dsum == pytest.approx(np.sum(nsol.dk))
    assert 0.0 < nsol.max_factor_dev < 1.0
    assert nsol.nonpositive_factor == ()


def test_solve_new_gap_zero_kernel(two_mode):
    mt, _ = two_mode
    nsol = solve_new_gap(mt, Kernel(u=np.zeros((2, 2))))
    assert nsol.trivial and np.all(nsol.delta.delta == 0)


def test_new_residual_is_classic_plus_correction(three_mode):
    # the corrected equation is the classic one plus exactly its correction term:
    # new - classic = -1/2 U (Delta/E * 4 D_k/(D+2)) at any gap table
    mt, kernel = three_mode
    rng = np.random.default_rng(7)
    for _ in range(20):
        origin, shell = rng.uniform(0.0, 3.0, size=2)
        gap = GapTable.from_delta(mt, [origin, shell, shell])
        dk, dsum = dk_weights(mt, kernel, gap)
        ratio = gap.delta / np.hypot(mt.xi, gap.delta)
        term = -0.5 * kernel.u @ (ratio * 4.0 * dk / (dsum + 2.0))
        diff = new_gap_residual(mt, kernel, gap) - gap_residual(mt, kernel, gap)
        assert np.max(np.abs(term)) > 1e-3
        assert np.max(np.abs(diff - term)) <= 1e-12


def test_scaling_consistency(two_mode):
    # U -> cU, xi -> c xi scales the solution Delta -> c Delta
    mt, kernel = two_mode
    c = 2.5
    tol = 1e-12
    base = solve_gap(mt, kernel, tol=tol)
    mt_s = explicit_modes([(1, 0, 0), (-1, 0, 0)], xi_override=[1.6 * c, 1.6 * c])
    sol_s = solve_gap(mt_s, Kernel(u=c * kernel.u), tol=tol)
    assert np.max(np.abs(sol_s.delta.delta - c * base.delta.delta)) <= 10 * tol * c


def test_new_gap_scaling_consistency(three_mode):
    # the correction factor is dimensionless, so the same scaling law holds
    mt, kernel = three_mode
    c = 3.0
    tol = 1e-12
    base = solve_new_gap(mt, kernel, tol=tol)
    mt_s = explicit_modes([(0, 0, 0), (1, 0, 0), (-1, 0, 0)], mu=0.5 * c, hbar=math.sqrt(c))
    assert np.allclose(mt_s.xi, c * mt.xi, atol=1e-14)
    sol_s = solve_new_gap(mt_s, Kernel(u=c * kernel.u), tol=tol)
    assert np.max(np.abs(sol_s.delta.delta - c * base.delta.delta)) <= 100 * tol * c


def test_degenerate_mode_is_flagged_not_fatal():
    # xi = 0 at the origin with a shell that decouples it: Delta_0 = 0, E_0 = 0
    mt = explicit_modes([(0, 0, 0), (1, 0, 0), (-1, 0, 0)], mu=0.0)
    kernel = separable_kernel(mt, 4.0, shell=lambda kn: kn > 0.5)
    sol = solve_gap(mt, kernel)
    assert sol.converged
    assert sol.degenerate_modes == (0,)
    dk, dsum = dk_weights(mt, kernel, sol.delta)
    assert np.all(np.isfinite(dk)) and np.isfinite(dsum)


TINY_KERNEL = Kernel(u=[[0.0, -1.0], [-1.0, 0.0]])


@pytest.mark.parametrize("xi", [1e-300, -1e-200, 1e-17])
def test_d_table_reads_cos2theta_below_the_guard(xi, tmp_path, capsys):
    # the corrected solve collapses to Delta = 0 with 0 < E = |xi| < EPS_GUARD: cos 2theta = +-1
    # makes every D_k summand vanish, where xi / EPS_GUARD would read cos 2theta ~ 0
    mt = explicit_modes([(1, 0, 0), (-1, 0, 0)], xi_override=[xi, xi])
    sol = solve_new_gap(mt, TINY_KERNEL)
    assert sol.dsum == 0.0
    dk, dsum = dk_weights(mt, TINY_KERNEL, sol.delta)
    assert np.all(dk == 0.0) and dsum == 0.0
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "lattice": {"modes": [[1, 0, 0], [-1, 0, 0]], "xi": [xi, xi]},
        "kernel": {"matrix": TINY_KERNEL.u.tolist()},
    }))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    checks = json.loads((tmp_path / "out" / "report.json").read_text())["checks"]
    assert {c["name"]: c["deviation"] for c in checks}["new_overlap_identity"] <= 1e-10


def _sweep_table(name):
    """(mode table, shell) of the benchmark's gap-sweep tables."""
    if name == "ac10":
        return explicit_modes([(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)], mu=0.5), None
    return build_lambda(2.0 * math.pi, 1.0, mu=1.0), lambda kn: 0.5 <= kn <= 1.5


def _literal_cases():
    """(label, mode table, kernel, solver settings) for the bit-for-bit oracle tests."""
    rng = np.random.default_rng(12)
    ac10, _ = _sweep_table("ac10")
    lattice, shell = _sweep_table("lattice")
    cases = [(f"ac10 g={g:.3f}", ac10, separable_kernel(ac10, g), {}) for g in rng.uniform(0.1, 4.0, 3)]
    cases += [
        (f"lattice g={g:.3f}", lattice, separable_kernel(lattice, g, shell=shell), {})
        for g in rng.uniform(0.1, 4.0, 3)
    ]
    pair = explicit_modes([(1, 0, 0), (-1, 0, 0)], xi_override=[1.6, 1.6])
    origin = explicit_modes([(0, 0, 0), (1, 0, 0), (-1, 0, 0)], mu=0.5)
    zero = explicit_modes(origin.nvecs, mu=0.0)
    cases += [
        # g/2 = 1 < xi: the iterate decays until the trivial streak stops it
        ("subcritical", pair, Kernel(u=[[0.0, -2.0], [-2.0, 0.0]]), {"tol": 1e-300}),
        # the repulsive origin row drives Delta_0 negative on every pass, so the
        # clamped iterate never meets the tolerance and runs to max_iter
        ("clamp", origin, Kernel(u=[[0.0, 1.0, 1.0], [1.0, 0.0, -4.0], [1.0, -4.0, 0.0]]), {"max_iter": 200}),
        # xi = 0 at the origin, which the all-mode kernel couples
        ("coupled xi=0", zero, separable_kernel(zero, 4.0), {}),
        ("max_iter", pair, Kernel(u=[[0.0, -4.0], [-4.0, 0.0]]), {"max_iter": 3}),
        # the corrected iterate collapses to 0 < E < EPS_GUARD: cos 2theta = xi/E, not xi/EPS_GUARD
        ("tiny xi", explicit_modes(pair.nvecs, xi_override=[1e-300, 1e-300]), TINY_KERNEL, {}),
    ]
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("label, mt, kernel, settings", _literal_cases())
def test_solve_matches_literal_loop_bit_for_bit(label, mt, kernel, settings):
    for corrected, solve in ((False, solve_gap), (True, solve_new_gap)):
        sol = solve(mt, kernel, **settings)
        ref = solve_literal(mt, kernel, corrected, **settings)
        assert np.array_equal(sol.delta.delta, ref["delta"])
        for name in ("theta", "sin2t", "cos2t", "energy"):
            assert np.array_equal(getattr(sol.delta, name), ref[name]), name
        for name in ("iterations", "residual_inf", "converged", "trivial", "clamped", "degenerate_modes"):
            assert getattr(sol, name) == ref[name], name
        if corrected:
            assert np.array_equal(sol.dk, ref["dk"])
            for name in ("dsum", "max_factor_dev", "nonpositive_factor"):
                assert getattr(sol, name) == ref[name], name
        else:
            assert sol.dk is None and sol.dsum is None and sol.max_factor_dev is None
        # each special case reaches the branch it is named for
        if label == "subcritical":
            assert ref["trivial"] and not ref["converged"]
        elif label == "clamp":
            assert ref["clamped"]
        elif label == "max_iter":
            assert ref["iterations"] == 3 and not ref["converged"]
        elif label == "tiny xi" and corrected:
            assert np.all((0.0 < ref["energy"]) & (ref["energy"] < EPS_GUARD))


@pytest.mark.parametrize("label, mt, kernel, settings", _literal_cases())
def test_new_solution_reports_the_d_table_at_its_gap(label, mt, kernel, settings):
    sol = solve_new_gap(mt, kernel, **settings)
    dk, dsum = dk_weights(mt, kernel, sol.delta)
    assert np.array_equal(sol.dk, dk)
    assert sol.dsum == dsum
    assert sol.max_factor_dev == float(np.max(4.0 * dk / (dsum + 2.0)))
    assert sol.nonpositive_factor == tuple(np.flatnonzero(correction_factor(dk, dsum) <= 0).tolist())


# AC-10 couplings where the corrected equation has a second nontrivial
# solution beside the damped loop's, e.g. (0.40, 0.15, ...) against
# (1.80, 1.79, ...) at g = 1.0746
BRANCH_TRAPS = (1.0746, 1.5808)


@pytest.mark.parametrize("table", ["ac10", "lattice"])
def test_accelerated_driver_keeps_the_damped_branch(table):
    # wherever the plain damped loop converges, the driver converges to the same solution
    mt, shell = _sweep_table(table)
    couplings = list(np.linspace(0.1, 4.0, 30)) + list(BRANCH_TRAPS if table == "ac10" else ())
    compared = 0
    for g in couplings:
        kernel = separable_kernel(mt, g, shell=shell)
        for corrected, solve in ((False, solve_gap), (True, solve_new_gap)):
            ref = solve_literal(mt, kernel, corrected, accelerate=False)
            if not ref["converged"]:
                continue
            sol = solve(mt, kernel)
            label = f"{table} g={g:.4f} corrected={corrected}"
            assert sol.converged, label
            assert sol.trivial == ref["trivial"], label
            assert np.max(np.abs(sol.delta.delta - ref["delta"])) <= 1e-8, label
            compared += 1
    assert compared >= 2 * len(couplings) - 2


@pytest.mark.parametrize("g", [0.2499, 0.25, 0.2501])
def test_classic_solve_converges_at_the_critical_coupling(g):
    # AC-10's classic g_c = 0.25, where the linearized gap map has unit gain;
    # the damped loop alone exhausts 10 000 iterations at all three couplings
    mt, _ = _sweep_table("ac10")
    sol = solve_gap(mt, separable_kernel(mt, g))
    assert sol.converged and sol.iterations <= 200
