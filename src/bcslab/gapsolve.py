"""Self-consistent solution of the pairing gap equations.

Both equations have the form Delta_k = -1/2 sum_k' U_{k,k'} w_k' and differ
only in the weights w:

  classic:    w_k' = Delta_k' / E_k'
  corrected:  w_k' = (Delta_k' / E_k') (1 - 4 D_k'/(D+2))

with E_k = sqrt(xi_k^2 + Delta_k^2) and the correction weights

  D_k' = 1/4 sum_p U_{k',p}^2 / (E_k' + E_p)^2 (1 - xi_k' xi_p / (E_k' E_p))^2,
  D = sum_k' D_k'.

`_weights` is the one place each w is written; the iteration and the
residuals `gap_residual` / `new_gap_residual` share it.  `_solve` is the one
damped fixed-point driver behind `solve_gap` and `solve_new_gap`, and
`check_solver` the one check of its settings.  The iteration keeps Delta >= 0
and constant on {k,-k} orbits, raises ConvergenceError on a non-finite
iterate, and every returned solution carries a residual re-evaluated at the
returned gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, ValidationError
from .model import Kernel, ModeTable

EPS_GUARD = np.finfo(np.float64).eps
TRIVIAL_FLOOR = 1e-13
TRIVIAL_STREAK = 10


@dataclass(frozen=True, eq=False)
class GapTable:
    """Gap values Delta_k per mode (nonnegative, even in k)."""

    delta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "delta", np.asarray(self.delta, dtype=np.float64))

    def validate(self, mt: ModeTable) -> None:
        if self.delta.shape != (mt.n_modes,):
            raise ValidationError(
                f"gap table has {self.delta.size} entries for {mt.n_modes} modes"
            )
        if np.any(self.delta < 0):
            raise ValidationError("gap values must be nonnegative")
        if np.any(self.delta != self.delta[mt.pair]):
            raise ValidationError("gap table must satisfy Delta(-k) = Delta(k)")


def _ratio(xi: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Delta/E with the 0/0 mode (xi = Delta = 0) sent to 0."""
    energy = np.hypot(xi, delta)
    return np.divide(delta, energy, out=np.zeros_like(delta), where=energy > 0)


@dataclass(frozen=True, eq=False)
class AngleTable:
    """Pairing angles theta_k in [0, pi/2] with cached trigonometry.

    sin2t = Delta/E and cos2t = xi/E whenever E > 0; the degenerate mode
    xi = Delta = 0 takes theta = pi/2.  `energy` is E_k; `delta` is kept
    for tables derived from a gap, None for raw-angle tables.
    """

    theta: np.ndarray
    sin_t: np.ndarray
    cos_t: np.ndarray
    sin2t: np.ndarray
    cos2t: np.ndarray
    energy: np.ndarray | None = None
    delta: np.ndarray | None = None

    @classmethod
    def from_delta(cls, mt: ModeTable, gap: GapTable) -> "AngleTable":
        gap.validate(mt)
        xi = mt.xi
        delta = gap.delta
        energy = np.hypot(xi, delta)
        pos = energy > 0
        sin2t = _ratio(xi, delta)
        cos2t = np.divide(xi, energy, out=-np.ones_like(xi), where=pos)
        theta = 0.5 * np.arctan2(delta, xi)
        theta[~pos] = 0.5 * math.pi  # xi = Delta = 0 convention
        # half-angle forms keep sin, cos >= 0 exactly on [0, pi/2]
        cos_t = np.sqrt(np.clip((1.0 + cos2t) / 2.0, 0.0, 1.0))
        sin_t = np.sqrt(np.clip((1.0 - cos2t) / 2.0, 0.0, 1.0))
        return cls(
            theta=theta, sin_t=sin_t, cos_t=cos_t, sin2t=sin2t, cos2t=cos2t,
            energy=energy, delta=delta,
        )

    @classmethod
    def from_theta(cls, mt: ModeTable, theta) -> "AngleTable":
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (mt.n_modes,):
            raise ValidationError(
                f"angle table has {theta.size} entries for {mt.n_modes} modes"
            )
        if np.any(theta < 0) or np.any(theta > 0.5 * math.pi):
            raise ValidationError("angles must lie in [0, pi/2]")
        if np.any(theta != theta[mt.pair]):
            raise ValidationError("angle table must satisfy theta(-k) = theta(k)")
        return cls(
            theta=theta,
            sin_t=np.sin(theta),
            cos_t=np.cos(theta),
            sin2t=np.sin(2.0 * theta),
            cos2t=np.cos(2.0 * theta),
        )

    def validate(self, mt: ModeTable) -> None:
        if self.theta.shape != (mt.n_modes,):
            raise ValidationError("angle table does not match the mode table")
        if np.any(self.theta != self.theta[mt.pair]):
            raise ValidationError("angle table must satisfy theta(-k) = theta(k)")


@dataclass(frozen=True, eq=False)
class GapSolution:
    """Converged (or best-effort) gap data plus solver metadata."""

    equation: str  # "classic" | "new"
    delta: GapTable
    theta: AngleTable
    residual_inf: float
    iterations: int
    converged: bool
    trivial: bool
    dk: np.ndarray | None = None
    dsum: float | None = None
    max_factor_dev: float | None = None  # max_k 4 D_k / (D + 2) at the solution
    clamped: bool = False
    nonpositive_factor: tuple = ()
    degenerate_modes: tuple = ()


@np.errstate(over="ignore", invalid="ignore")  # a non-finite D reaches the ConvergenceError of _solve
def _dk_table(mt: ModeTable, kernel: Kernel, delta: np.ndarray) -> tuple:
    energy = np.hypot(mt.xi, delta)
    guarded = np.maximum(energy, EPS_GUARD)
    cos2 = mt.xi / guarded
    shape = (1.0 - np.outer(cos2, cos2)) ** 2
    denom = (guarded[:, None] + guarded[None, :]) ** 2
    dk = 0.25 * (kernel.u**2 * shape / denom).sum(axis=1)
    return dk, float(dk.sum())


def _weights(mt: ModeTable, kernel: Kernel, delta: np.ndarray, corrected: bool) -> np.ndarray:
    """Weights w of Delta = -1/2 U w: Delta/E, times 1 - 4 D_k/(D+2) when `corrected`."""
    weighted = _ratio(mt.xi, delta)
    if corrected:
        weighted = weighted * correction_factor(*_dk_table(mt, kernel, delta))
    return weighted


def gap_residual(mt: ModeTable, kernel: Kernel, gap: GapTable) -> np.ndarray:
    """r_k = Delta_k + 1/2 sum_k' U_{k,k'} Delta_k'/E_k'; zero at a solution."""
    gap.validate(mt)
    return gap.delta + 0.5 * kernel.u @ _weights(mt, kernel, gap.delta, False)


def dk_weights(mt: ModeTable, kernel: Kernel, gap: GapTable) -> tuple:
    """Correction weights (D_k table, D) for the corrected gap equation.

    Degenerate modes (E = 0) keep the formula with E replaced by a machine
    epsilon guard; their numerators vanish exactly, so each guarded summand
    is the limit value unless the kernel couples the mode.
    """
    gap.validate(mt)
    return _dk_table(mt, kernel, gap.delta)


def correction_factor(dk: np.ndarray, dsum: float) -> np.ndarray:
    """Per-mode shrink factor 1 - 4 D_k / (D + 2)."""
    return 1.0 - 4.0 * dk / (dsum + 2.0)


def new_gap_residual(mt: ModeTable, kernel: Kernel, gap: GapTable) -> np.ndarray:
    """Residual of the corrected gap equation, with D recomputed from `gap`."""
    gap.validate(mt)
    return gap.delta + 0.5 * kernel.u @ _weights(mt, kernel, gap.delta, True)


def check_solver(init, damping, tol, max_iter) -> None:
    """Raise ValidationError unless the solver settings lie in their valid domain."""
    if not 0.0 < init < math.inf:  # zero starts at the trivial fixed point
        raise ValidationError(f"solver.init must be positive and finite, got {init!r}")
    if not 0.0 < damping <= 1.0:
        raise ValidationError(f"solver.damping must lie in (0, 1], got {damping!r}")
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"solver.tol must be positive and finite, got {tol!r}")
    if max_iter < 1:
        raise ValidationError(f"solver.max_iter must be at least 1, got {max_iter!r}")


@np.errstate(over="ignore", invalid="ignore")  # a non-finite iterate raises ConvergenceError
def _solve(mt, kernel, corrected, init, damping, tol, max_iter) -> GapSolution:
    """Damped iteration Delta <- (1-l) Delta + l rhs(Delta), clamped and symmetrized."""
    check_solver(init, damping, tol, max_iter)
    row_mag = np.abs(kernel.u).sum(axis=1)
    delta = np.where(row_mag > 0, float(init), 0.0)
    clamped = False
    streak = 0
    iterations = 0
    converged = False
    trivial_stop = False
    for iterations in range(max_iter + 1):
        proposal = -0.5 * kernel.u @ _weights(mt, kernel, delta, corrected)
        residual = float(np.max(np.abs(delta - proposal))) if delta.size else 0.0
        if not math.isfinite(residual):
            raise ConvergenceError(f"gap iterate became non-finite at iteration {iterations}")
        if residual <= tol:
            converged = True
            break
        if np.max(np.abs(delta)) < TRIVIAL_FLOOR:
            streak += 1
            if streak >= TRIVIAL_STREAK:
                trivial_stop = True
                break
        else:
            streak = 0
        delta = (1.0 - damping) * delta + damping * proposal
        if np.any(delta < 0):
            clamped = True
            delta = np.maximum(delta, 0.0)
        delta = 0.5 * (delta + delta[mt.pair])
    gap = GapTable(delta=delta)
    residual = (new_gap_residual if corrected else gap_residual)(mt, kernel, gap)
    residual_inf = float(np.max(np.abs(residual)))
    if not math.isfinite(residual_inf):
        raise ConvergenceError("gap iterate became non-finite in the last update")
    converged = converged or residual_inf <= tol
    return GapSolution(
        equation="new" if corrected else "classic",
        delta=gap,
        theta=AngleTable.from_delta(mt, gap),
        residual_inf=residual_inf,
        iterations=iterations,
        converged=converged,
        trivial=trivial_stop or (converged and float(np.max(np.abs(delta))) <= 100.0 * tol),
        clamped=clamped,
        degenerate_modes=tuple(np.flatnonzero(np.hypot(mt.xi, delta) == 0).tolist()),
    )


def solve_gap(
    mt: ModeTable,
    kernel: Kernel,
    init: float = 1.0,
    damping: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> GapSolution:
    """Solve the classic gap equation by damped fixed-point iteration.

    An all-zero collapse is reported as the trivial solution rather than a
    failure; non-convergence returns the best iterate with converged=False;
    a non-finite iterate raises ConvergenceError.
    """
    return _solve(mt, kernel, False, init, damping, tol, max_iter)


def solve_new_gap(
    mt: ModeTable,
    kernel: Kernel,
    init: float = 1.0,
    damping: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> GapSolution:
    """Solve the corrected gap equation; D_k, D are refreshed from each iterate."""
    sol = _solve(mt, kernel, True, init, damping, tol, max_iter)
    dk, dsum = dk_weights(mt, kernel, sol.delta)
    return replace(
        sol,
        dk=dk,
        dsum=dsum,
        max_factor_dev=float(np.max(4.0 * dk / (dsum + 2.0))) if dk.size else 0.0,
        nonpositive_factor=tuple(np.flatnonzero(correction_factor(dk, dsum) <= 0).tolist()),
    )
