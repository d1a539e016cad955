"""Self-consistent solution of the pairing gap equations.

Two equations are supported on the same damped fixed-point driver:

  classic:    Delta_k = -1/2 sum_k' U_{k,k'} Delta_k' / E_k'
  corrected:  Delta_k = -1/2 sum_k' U_{k,k'} (Delta_k'/E_k') (1 - 4 D_k'/(D+2))

with E_k = sqrt(xi_k^2 + Delta_k^2) and the correction weights

  D_k' = 1/4 sum_p U_{k',p}^2 / (E_k' + E_p)^2 (1 - xi_k' xi_p / (E_k' E_p))^2,
  D = sum_k' D_k'.

The iteration keeps Delta >= 0 and constant on {k,-k} orbits, and every
returned solution carries an independently re-evaluated residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
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
    xi: np.ndarray
    energy: np.ndarray | None = None
    delta: np.ndarray | None = None

    @classmethod
    def from_delta(cls, mt: ModeTable, gap: GapTable) -> "AngleTable":
        gap.validate(mt)
        xi = mt.xi
        delta = gap.delta
        energy = np.hypot(xi, delta)
        pos = energy > 0
        sin2t = np.divide(delta, energy, out=np.zeros_like(delta), where=pos)
        cos2t = np.divide(xi, energy, out=-np.ones_like(xi), where=pos)
        theta = 0.5 * np.arctan2(delta, xi)
        theta[~pos] = 0.5 * math.pi  # xi = Delta = 0 convention
        # half-angle forms keep sin, cos >= 0 exactly on [0, pi/2]
        cos_t = np.sqrt(np.clip((1.0 + cos2t) / 2.0, 0.0, 1.0))
        sin_t = np.sqrt(np.clip((1.0 - cos2t) / 2.0, 0.0, 1.0))
        return cls(
            theta=theta, sin_t=sin_t, cos_t=cos_t, sin2t=sin2t, cos2t=cos2t,
            xi=xi, energy=energy, delta=delta,
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
            xi=mt.xi,
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


def _ratio(xi: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Delta/E with the 0/0 mode (xi = Delta = 0) sent to 0."""
    energy = np.hypot(xi, delta)
    return np.divide(delta, energy, out=np.zeros_like(delta), where=energy > 0)


def gap_residual(mt: ModeTable, kernel: Kernel, gap: GapTable) -> np.ndarray:
    """r_k = Delta_k + 1/2 sum_k' U_{k,k'} Delta_k'/E_k'; zero at a solution."""
    gap.validate(mt)
    return gap.delta + 0.5 * kernel.u @ _ratio(mt.xi, gap.delta)


def dk_weights(mt: ModeTable, kernel: Kernel, gap: GapTable) -> tuple:
    """Correction weights (D_k table, D) for the corrected gap equation.

    Degenerate modes (E = 0) keep the formula with E replaced by a machine
    epsilon guard; their numerators vanish exactly, so each guarded summand
    is the limit value unless the kernel couples the mode.
    """
    gap.validate(mt)
    energy = np.hypot(mt.xi, gap.delta)
    guarded = np.maximum(energy, EPS_GUARD)
    cos2 = mt.xi / guarded
    shape = (1.0 - np.outer(cos2, cos2)) ** 2
    denom = (guarded[:, None] + guarded[None, :]) ** 2
    dk = 0.25 * (kernel.u**2 * shape / denom).sum(axis=1)
    return dk, float(dk.sum())


def correction_factor(dk: np.ndarray, dsum: float) -> np.ndarray:
    """Per-mode shrink factor 1 - 4 D_k / (D + 2)."""
    return 1.0 - 4.0 * dk / (dsum + 2.0)


def new_gap_residual(mt: ModeTable, kernel: Kernel, gap: GapTable) -> np.ndarray:
    """Residual of the corrected gap equation, with D recomputed from `gap`."""
    gap.validate(mt)
    dk, dsum = dk_weights(mt, kernel, gap)
    weighted = _ratio(mt.xi, gap.delta) * correction_factor(dk, dsum)
    return gap.delta + 0.5 * kernel.u @ weighted


def _fixed_point(mt, kernel, rhs, init, damping, tol, max_iter):
    """Damped iteration Delta <- (1-l) Delta + l rhs(Delta), clamped and symmetrized."""
    if init <= 0:
        raise ValidationError("init must be positive (zero starts at the trivial fixed point)")
    if not 0.0 < damping <= 1.0:
        raise ValidationError("damping must lie in (0, 1]")
    if tol <= 0:
        raise ValidationError("tol must be positive")
    row_mag = np.abs(kernel.u).sum(axis=1)
    delta = np.where(row_mag > 0, float(init), 0.0)
    clamped = False
    streak = 0
    iterations = 0
    converged = False
    trivial_stop = False
    for iterations in range(max_iter + 1):
        proposal = rhs(delta)
        residual = float(np.max(np.abs(delta - proposal))) if delta.size else 0.0
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
    return delta, iterations, converged, trivial_stop, clamped


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
    failure; non-convergence returns the best iterate with converged=False.
    """
    ratio_rhs = lambda d: -0.5 * kernel.u @ _ratio(mt.xi, d)  # noqa: E731
    delta, iterations, converged, trivial_stop, clamped = _fixed_point(
        mt, kernel, ratio_rhs, init, damping, tol, max_iter
    )
    gap = GapTable(delta=delta)
    residual_inf = float(np.max(np.abs(gap_residual(mt, kernel, gap))))
    converged = converged or residual_inf <= tol
    trivial = trivial_stop or (converged and float(np.max(np.abs(delta))) <= 100.0 * tol)
    return GapSolution(
        equation="classic",
        delta=gap,
        theta=AngleTable.from_delta(mt, gap),
        residual_inf=residual_inf,
        iterations=iterations,
        converged=converged,
        trivial=trivial,
        clamped=clamped,
        degenerate_modes=tuple(np.flatnonzero(np.hypot(mt.xi, delta) == 0).tolist()),
    )


def solve_new_gap(
    mt: ModeTable,
    kernel: Kernel,
    init: float = 1.0,
    damping: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 10000,
    include_correction: bool = True,
) -> GapSolution:
    """Solve the corrected gap equation; D_k, D are refreshed from each iterate.

    `include_correction=False` pins the correction factor at 1, reproducing
    the classic equation on the same code path (cross-check hook).
    """

    def rhs(d):
        weighted = _ratio(mt.xi, d)
        if include_correction:
            dk, dsum = dk_weights(mt, kernel, GapTable(delta=d))
            weighted = weighted * correction_factor(dk, dsum)
        return -0.5 * kernel.u @ weighted

    delta, iterations, converged, trivial_stop, clamped = _fixed_point(
        mt, kernel, rhs, init, damping, tol, max_iter
    )
    gap = GapTable(delta=delta)
    if include_correction:
        residual = new_gap_residual(mt, kernel, gap)
    else:
        residual = gap_residual(mt, kernel, gap)
    residual_inf = float(np.max(np.abs(residual)))
    converged = converged or residual_inf <= tol
    trivial = trivial_stop or (converged and float(np.max(np.abs(delta))) <= 100.0 * tol)
    dk, dsum = dk_weights(mt, kernel, gap)
    factor = correction_factor(dk, dsum)
    return GapSolution(
        equation="new" if include_correction else "classic",
        delta=gap,
        theta=AngleTable.from_delta(mt, gap),
        residual_inf=residual_inf,
        iterations=iterations,
        converged=converged,
        trivial=trivial,
        dk=dk,
        dsum=dsum,
        max_factor_dev=float(np.max(4.0 * dk / (dsum + 2.0))) if dk.size else 0.0,
        clamped=clamped,
        nonpositive_factor=tuple(np.flatnonzero(factor <= 0).tolist()),
        degenerate_modes=tuple(np.flatnonzero(np.hypot(mt.xi, delta) == 0).tolist()),
    )
