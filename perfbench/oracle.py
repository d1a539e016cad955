"""Correctness oracle, written without any bcslab code.

A verification passes when `bcslab verify` exits 0, its report lists the
reference check names in order, no check fails, exactly the reference
checks are skipped, and both gap tables match the stored reference within
DELTA_TOL and solve their gap equations by this file's own residual
formulas.  A gap solve passes when it reports convergence and its gap
table meets the solver tolerance by the same own formulas.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

DELTA_TOL = 1e-9
REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())


def _ratio(xi, delta):
    energy = np.hypot(xi, delta)
    return np.divide(delta, energy, out=np.zeros_like(delta), where=energy > 0), energy


def classic_residual(xi, u, delta) -> float:
    """max_k |Delta_k + 1/2 sum_k' U_kk' Delta_k'/E_k'|."""
    ratio, _ = _ratio(xi, delta)
    return float(np.max(np.abs(delta + 0.5 * u @ ratio)))


def corrected_residual(xi, u, delta) -> float:
    """Residual of Delta_k = -1/2 sum_k' U_kk' (Delta_k'/E_k') (1 - 4 D_k'/(D + 2)).

    D_k = 1/4 sum_p U_kp^2 (1 - xi_k xi_p / (E_k E_p))^2 / (E_k + E_p)^2,
    summed over coupled pairs (U_kp != 0) with E_k, E_p > 0.
    """
    ratio, energy = _ratio(xi, delta)
    cos2 = np.divide(xi, energy, out=np.zeros_like(xi), where=energy > 0)
    esum = energy[:, None] + energy[None, :]
    live = (u != 0.0) & (energy[:, None] > 0) & (energy[None, :] > 0)
    terms = np.zeros_like(u)
    terms[live] = (u**2 * (1.0 - np.outer(cos2, cos2)) ** 2)[live] / esum[live] ** 2
    dk = 0.25 * terms.sum(axis=1)
    factor = 1.0 - 4.0 * dk / (dk.sum() + 2.0)
    return float(np.max(np.abs(delta + 0.5 * u @ (ratio * factor))))


def check_verify(workload: str, exit_code, report_path: Path, xi, u, tol: float) -> list:
    """Problems found with one `bcslab verify` run; empty when it is correct.

    `exit_code` is the return value of `cli.main`, or the text of the exception it raised.
    """
    if exit_code != 0:
        return [f"verify ended with {exit_code}"]
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {exc}"]
    ref = REFERENCE["verify"][workload]
    checks = report["checks"]
    problems = []
    names = [c["name"] for c in checks]
    if names != REFERENCE["check_names"]:
        problems.append("check names or order differ from the reference")
    failed = [c["name"] for c in checks if not (c["passed"] or c["skipped"])]
    if failed:
        problems.append(f"failed checks {failed}")
    skipped = [c["name"] for c in checks if c["skipped"]]
    if skipped != ref["skipped"]:
        problems.append(f"skipped checks {skipped}, expected {ref['skipped']}")
    for equation, residual in (("classic", classic_residual), ("new", corrected_residual)):
        delta = np.asarray(report["metadata"][equation]["delta"], dtype=np.float64)
        expected = np.asarray(ref["delta"][equation], dtype=np.float64)
        if delta.shape != expected.shape or np.max(np.abs(delta - expected)) > DELTA_TOL:
            problems.append(f"{equation}.delta differs from the reference")
        elif residual(xi, u, delta) > tol:
            problems.append(f"{equation}.delta misses the gap equation")
    return problems


def check_solve(equation: str, sol, xi, u, tol: float) -> list:
    """Problems found with one gap solve; empty when it is correct."""
    if not sol.converged:
        return [f"{equation} solve did not converge"]
    residual = classic_residual if equation == "classic" else corrected_residual
    res = residual(xi, u, np.asarray(sol.delta.delta, dtype=np.float64))
    if not res <= tol:
        return [f"{equation} residual {res:.3e} above tol {tol:.1e}"]
    return []
