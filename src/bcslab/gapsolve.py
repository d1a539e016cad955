"""Self-consistent solution of the pairing gap equations.

Both equations have the form Delta_k = -1/2 sum_k' U_{k,k'} w_k' and differ
only in the weights w:

  classic:    w_k' = Delta_k' / E_k'
  corrected:  w_k' = (Delta_k' / E_k') (1 - 4 D_k'/(D+2))

with E_k = sqrt(xi_k^2 + Delta_k^2) and the correction weights

  D_k' = 1/4 sum_p U_{k',p}^2 / (E_k' + E_p)^2 (1 - xi_k' xi_p / (E_k' E_p))^2,
  D = sum_k' D_k'.

`_weights` is the one place each w is written; the iteration, the residuals
`gap_residual` / `new_gap_residual` and `dk_weights` share it.  It reads a
`_GapMap`, the values fixed for one solve (xi, U/2, -U/2 and, for the
corrected equation, the entrywise U^2), and computes E once per iterate for
both Delta/E and the D_k table.

`_solve` is the one damped fixed-point iteration behind `solve_gap` and
`solve_new_gap`, and `check_solver` the one check of its settings.  Once per
solve it builds the `_GapMap`, reads the pair map and enters one
`np.errstate`; a loop pass does only the work that depends on the iterate.
The iteration keeps Delta >= 0 (the start is >= 0, a negative entry is
clamped to 0, and the {k,-k} average of nonnegative entries is nonnegative),
so max Delta is max |Delta| in the trivial-stop test.  It keeps Delta
constant on {k,-k} orbits and raises ConvergenceError on a non-finite
iterate.  Every returned solution carries a residual re-evaluated at the
returned gap, and a corrected solution reports the D_k table of that same
evaluation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

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


def _ratio(delta: np.ndarray, energy: np.ndarray) -> np.ndarray:
    """Delta/E with the 0/0 mode (xi = Delta = 0) sent to 0."""
    return np.divide(delta, energy, out=np.zeros(delta.shape), where=energy > 0)


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
        sin2t = _ratio(delta, energy)
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


@dataclass(frozen=True, eq=False)
class _GapMap:
    """What the gap maps read that one solve never changes.

    `u2` is the entrywise U^2 of the D_k table, None for the classic equation.
    """

    xi: np.ndarray
    half_u: np.ndarray  # U/2, for the residual Delta + U w / 2
    neg_half_u: np.ndarray  # -U/2, for the right-hand side -U w / 2; equal to -0.5 * U bit for bit
    u2: np.ndarray | None

    @classmethod
    def of(cls, mt: ModeTable, kernel: Kernel, corrected: bool) -> "_GapMap":
        half_u = 0.5 * kernel.u
        return cls(mt.xi, half_u, -half_u, kernel.u**2 if corrected else None)


def _dk_table(xi: np.ndarray, u2: np.ndarray, energy: np.ndarray) -> tuple:
    guarded = np.maximum(energy, EPS_GUARD)
    cos2 = xi / guarded
    shape = (1.0 - np.multiply.outer(cos2, cos2)) ** 2
    denom = (guarded[:, None] + guarded[None, :]) ** 2
    dk = 0.25 * (u2 * shape / denom).sum(axis=1)
    return dk, float(dk.sum())


def _weights(gm: _GapMap, delta: np.ndarray) -> tuple:
    """(w, dk, dsum): the weights w of Delta = -1/2 U w and the D table they used.

    w is Delta/E, times 1 - 4 D_k/(D+2) for the corrected equation; dk and
    dsum are None for the classic one.
    """
    energy = np.hypot(gm.xi, delta)
    weighted = _ratio(delta, energy)
    if gm.u2 is None:
        return weighted, None, None
    dk, dsum = _dk_table(gm.xi, gm.u2, energy)
    return weighted * correction_factor(dk, dsum), dk, dsum


def _residual(gm: _GapMap, delta: np.ndarray) -> tuple:
    """(r, dk, dsum): r_k = Delta_k + 1/2 sum_k' U_{k,k'} w_k' and the D table of w."""
    weighted, dk, dsum = _weights(gm, delta)
    return delta + gm.half_u @ weighted, dk, dsum


def gap_residual(mt: ModeTable, kernel: Kernel, gap: GapTable) -> np.ndarray:
    """r_k = Delta_k + 1/2 sum_k' U_{k,k'} Delta_k'/E_k'; zero at a solution."""
    gap.validate(mt)
    return _residual(_GapMap.of(mt, kernel, False), gap.delta)[0]


@np.errstate(over="ignore", invalid="ignore")  # a non-finite D is returned, not raised
def dk_weights(mt: ModeTable, kernel: Kernel, gap: GapTable) -> tuple:
    """Correction weights (D_k table, D) for the corrected gap equation.

    Degenerate modes (E = 0) keep the formula with E replaced by a machine
    epsilon guard; their numerators vanish exactly, so each guarded summand
    is the limit value unless the kernel couples the mode.
    """
    gap.validate(mt)
    _, dk, dsum = _weights(_GapMap.of(mt, kernel, True), gap.delta)
    return dk, dsum


def correction_factor(dk: np.ndarray, dsum: float) -> np.ndarray:
    """Per-mode shrink factor 1 - 4 D_k / (D + 2)."""
    return 1.0 - 4.0 * dk / (dsum + 2.0)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite D shows in the residual
def new_gap_residual(mt: ModeTable, kernel: Kernel, gap: GapTable) -> np.ndarray:
    """Residual of the corrected gap equation, with D recomputed from `gap`."""
    gap.validate(mt)
    return _residual(_GapMap.of(mt, kernel, True), gap.delta)[0]


def check_solver(init, damping, tol, max_iter) -> None:
    """Raise ValidationError unless the solver settings lie in their valid domain."""
    if not 0.0 < init < math.inf:  # zero starts at the trivial fixed point
        raise ValidationError(f"solver.init must be positive and finite, got {init!r}")
    if not 0.0 < damping <= 1.0:
        raise ValidationError(f"solver.damping must lie in (0, 1], got {damping!r}")
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"solver.tol must be positive and finite, got {tol!r}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral):
        raise ValidationError(f"solver.max_iter must be an integer, got {max_iter!r}")
    if max_iter < 1:
        raise ValidationError(f"solver.max_iter must be at least 1, got {max_iter!r}")


@np.errstate(over="ignore", invalid="ignore")  # a non-finite iterate raises ConvergenceError
def _solve(mt, kernel, corrected, init, damping, tol, max_iter) -> GapSolution:
    """Damped iteration Delta <- (1-l) Delta + l rhs(Delta), clamped and symmetrized."""
    check_solver(init, damping, tol, max_iter)
    gm = _GapMap.of(mt, kernel, corrected)
    neg_half_u, pair = gm.neg_half_u, mt.pair
    row_mag = np.abs(kernel.u).sum(axis=1)
    delta = np.where(row_mag > 0, float(init), 0.0)
    clamped = False
    streak = 0
    iterations = 0
    converged = False
    trivial_stop = False
    for iterations in range(max_iter + 1):
        proposal = neg_half_u @ _weights(gm, delta)[0]
        residual = float(np.abs(delta - proposal).max()) if delta.size else 0.0
        if not math.isfinite(residual):
            raise ConvergenceError(f"gap iterate became non-finite at iteration {iterations}")
        if residual <= tol:
            converged = True
            break
        if delta.max() < TRIVIAL_FLOOR:  # Delta >= 0, so this is max |Delta|
            streak += 1
            if streak >= TRIVIAL_STREAK:
                trivial_stop = True
                break
        else:
            streak = 0
        delta = (1.0 - damping) * delta + damping * proposal
        if (delta < 0).any():
            clamped = True
            delta = np.maximum(delta, 0.0)
        delta = 0.5 * (delta + delta[pair])
    gap = GapTable(delta=delta)
    theta = AngleTable.from_delta(mt, gap)
    residual, dk, dsum = _residual(gm, delta)
    residual_inf = float(np.abs(residual).max())
    if not math.isfinite(residual_inf):
        raise ConvergenceError("gap iterate became non-finite in the last update")
    converged = converged or residual_inf <= tol
    corrected_fields = {}
    if corrected:
        corrected_fields = dict(
            dk=dk,
            dsum=dsum,
            max_factor_dev=float((4.0 * dk / (dsum + 2.0)).max()) if dk.size else 0.0,
            nonpositive_factor=tuple(np.flatnonzero(correction_factor(dk, dsum) <= 0).tolist()),
        )
    return GapSolution(
        equation="new" if corrected else "classic",
        delta=gap,
        theta=theta,
        residual_inf=residual_inf,
        iterations=iterations,
        converged=converged,
        trivial=trivial_stop or (converged and float(delta.max()) <= 100.0 * tol),
        clamped=clamped,
        degenerate_modes=tuple(np.flatnonzero(theta.energy == 0).tolist()),
        **corrected_fields,
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
    """Solve the corrected gap equation; D_k, D are refreshed from each iterate.

    The returned dk, dsum are the D table of the residual evaluation at the
    returned gap, equal to `dk_weights` there.
    """
    return _solve(mt, kernel, True, init, damping, tol, max_iter)
