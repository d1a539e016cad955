"""Self-consistent solution of the pairing gap equations.

Both equations have the form Delta_k = -1/2 sum_k' U_{k,k'} w_k' and differ
only in the weights w:

  classic:    w_k' = Delta_k' / E_k'
  corrected:  w_k' = (Delta_k' / E_k') (1 - 4 D_k'/(D+2))

with E_k = sqrt(xi_k^2 + Delta_k^2) and the correction weights

  D_k' = 1/4 sum_p U_{k',p}^2 / (E_k' + E_p)^2 (1 - xi_k' xi_p / (E_k' E_p))^2,
  D = sum_k' D_k'.

`GapTable` holds one gap table and what it fixes: E_k, the pairing angle
theta_k with sin 2theta = Delta/E, cos 2theta = xi/E, and its half angles.
`GapTable.from_delta` is its one constructor and checks Delta once; every
reader of Delta, E or theta in the package takes the table, and
`validate` checks it against the reader's mode table.

The D table takes cos 2theta_k = xi_k/E_k exactly, and 0 at a degenerate
mode (E_k = xi_k = Delta_k = 0), where `GapTable` takes -1 with theta = pi/2;
EPS_GUARD bounds only the E that divide, each E in (E_k + E_p)^2 read as
max(E, EPS_GUARD).

`_weights` is the one place each w is written; it takes xi, the entrywise
U^2 of the corrected equation (None for the classic one) and Delta, and
computes E once per iterate for both Delta/E and the D_k table.  The
residuals `gap_residual` / `new_gap_residual` and `dk_weights` read one
evaluation, `_residual`, which checks the gap table against the mode table
once.

`_solve` is the one fixed-point driver behind `solve_gap` and
`solve_new_gap`, and `check_solver` the one check of its settings.  It takes
damped steps Delta <- (1-b) Delta + b rhs(Delta) until the residual
max |Delta - rhs(Delta)| falls to ANDERSON_SWITCH, then Anderson steps of
depth ANDERSON_DEPTH (Anderson, J. ACM 12, 547, 1965; Walker and Ni, SIAM J.
Numer. Anal. 49, 1715, 2011) with the same mixing b = damping.  The damped
start keeps the solve on the branch the damped loop finds: the corrected
equation can have a second nontrivial solution, which Anderson steps from
the start value may reach.  The history is cleared whenever the residual is
above the switch, and an accelerated step with a negative entry or a
singular least-squares problem is replaced by the damped step.

Once per solve the driver forms -U/2 and, for the corrected equation, U^2,
reads the pair map and enters one `np.errstate`; a loop pass does only the
work that depends on the iterate.  -U/2 is the one matrix of both the step
-U w / 2 and the residual Delta - (-U/2) w, which equals Delta + (U/2) w bit
for bit because negation is exact.  The driver keeps Delta >= 0 (the start
is >= 0, an accelerated step with a negative entry is discarded, a damped
step's negative entry is clamped to 0, and the {k,-k} average of
nonnegative entries is nonnegative), so max Delta is max |Delta| in the
trivial-stop test.  It keeps Delta constant on {k,-k}
orbits and raises ConvergenceError on a non-finite iterate.  Every returned
solution carries its `GapTable` as `delta`, built once after the residual
re-evaluated at the returned gap, and a corrected solution reports the D_k
table of that same evaluation.
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
ANDERSON_DEPTH = 3  # difference vectors in the Anderson least-squares problem
ANDERSON_SWITCH = 1e-2  # residual at and below which the driver takes Anderson steps
ANDERSON_RIDGE = 1e-10  # Tikhonov weight of the normal equations, relative to their trace


def _ratio(delta: np.ndarray, energy: np.ndarray) -> np.ndarray:
    """Delta/E with the 0/0 mode (xi = Delta = 0) sent to 0."""
    return np.divide(delta, energy, out=np.zeros(delta.shape), where=energy > 0)


@dataclass(frozen=True, eq=False)
class GapTable:
    """Gap values Delta_k per mode with the energies and pairing angles they fix.

    Built by `from_delta`, its one constructor, which checks Delta (one
    nonnegative entry per mode, even in k) and forms the rest once:
    E = sqrt(xi^2 + Delta^2), theta in [0, pi/2] with sin2t = Delta/E and
    cos2t = xi/E whenever E > 0, and the half angles sin_t, cos_t; the
    degenerate mode xi = Delta = 0 takes theta = pi/2.
    """

    delta: np.ndarray
    energy: np.ndarray
    theta: np.ndarray
    sin_t: np.ndarray
    cos_t: np.ndarray
    sin2t: np.ndarray
    cos2t: np.ndarray

    @classmethod
    def from_delta(cls, mt: ModeTable, delta) -> "GapTable":
        delta = np.asarray(delta, dtype=np.float64)
        if delta.shape != (mt.n_modes,):
            raise ValidationError(f"gap table has {delta.size} entries for {mt.n_modes} modes")
        if np.any(delta < 0):
            raise ValidationError("gap values must be nonnegative")
        if np.any(delta != delta[mt.pair]):
            raise ValidationError("gap table must satisfy Delta(-k) = Delta(k)")
        energy = np.hypot(mt.xi, delta)
        pos = energy > 0
        cos2t = np.divide(mt.xi, energy, out=-np.ones_like(mt.xi), where=pos)
        theta = 0.5 * np.arctan2(delta, mt.xi)
        theta[~pos] = 0.5 * math.pi  # xi = Delta = 0 convention
        # half-angle forms keep sin, cos >= 0 exactly on [0, pi/2]
        return cls(
            delta=delta,
            energy=energy,
            theta=theta,
            sin_t=np.sqrt(np.clip((1.0 - cos2t) / 2.0, 0.0, 1.0)),
            cos_t=np.sqrt(np.clip((1.0 + cos2t) / 2.0, 0.0, 1.0)),
            sin2t=_ratio(delta, energy),
            cos2t=cos2t,
        )

    def validate(self, mt: ModeTable) -> None:
        """Raise ValidationError unless the table belongs to a mode table like `mt`."""
        if self.theta.shape != (mt.n_modes,):
            raise ValidationError("gap table does not match the mode table")
        if np.any(self.theta != self.theta[mt.pair]):
            raise ValidationError("gap table must satisfy theta(-k) = theta(k)")


@dataclass(frozen=True, eq=False)
class GapSolution:
    """Converged (or best-effort) gap data plus solver metadata."""

    equation: str  # "classic" | "new"
    delta: GapTable
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


def _dk_table(xi: np.ndarray, u2: np.ndarray, energy: np.ndarray) -> tuple:
    cos2 = xi / (energy + np.logical_not(energy))  # xi/E exactly, and 0 where E = xi = 0
    guarded = np.maximum(energy, EPS_GUARD)
    shape = (1.0 - np.multiply.outer(cos2, cos2)) ** 2
    denom = (guarded[:, None] + guarded[None, :]) ** 2
    dk = 0.25 * (u2 * shape / denom).sum(axis=1)
    return dk, float(dk.sum())


def _weights(xi: np.ndarray, u2: np.ndarray | None, delta: np.ndarray) -> tuple:
    """(w, dk, dsum): the weights w of Delta = -1/2 U w and the D table they used.

    w is Delta/E, times 1 - 4 D_k/(D+2) for the corrected equation, whose
    entrywise U^2 is `u2`; for the classic one `u2`, dk and dsum are None.
    """
    energy = np.hypot(xi, delta)
    weighted = _ratio(delta, energy)
    if u2 is None:
        return weighted, None, None
    dk, dsum = _dk_table(xi, u2, energy)
    return weighted * correction_factor(dk, dsum), dk, dsum


def _residual(mt: ModeTable, kernel: Kernel, gap: GapTable, corrected: bool) -> tuple:
    """(r, dk, dsum): r_k = Delta_k + 1/2 sum_k' U_{k,k'} w_k' and the D table of w."""
    gap.validate(mt)
    neg_half_u = -0.5 * kernel.u
    weighted, dk, dsum = _weights(mt.xi, kernel.u**2 if corrected else None, gap.delta)
    return gap.delta - neg_half_u @ weighted, dk, dsum


def gap_residual(mt: ModeTable, kernel: Kernel, gap: GapTable) -> np.ndarray:
    """r_k = Delta_k + 1/2 sum_k' U_{k,k'} Delta_k'/E_k'; zero at a solution."""
    return _residual(mt, kernel, gap, False)[0]


@np.errstate(over="ignore", invalid="ignore")  # a non-finite D is returned, not raised
def dk_weights(mt: ModeTable, kernel: Kernel, gap: GapTable) -> tuple:
    """Correction weights (D_k table, D) for the corrected gap equation.

    A degenerate mode k (E = 0) takes cos 2theta = 0 and EPS_GUARD for its E,
    so its summand with a mode p is
    U_{k,p}^2 / (4 (EPS_GUARD + max(E_p, EPS_GUARD))^2): zero unless the
    kernel couples the two, and at most U_{k,p}^2 / (16 EPS_GUARD^2).
    """
    return _residual(mt, kernel, gap, True)[1:]


def correction_factor(dk: np.ndarray, dsum: float) -> np.ndarray:
    """Per-mode shrink factor 1 - 4 D_k / (D + 2)."""
    return 1.0 - 4.0 * dk / (dsum + 2.0)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite D shows in the residual
def new_gap_residual(mt: ModeTable, kernel: Kernel, gap: GapTable) -> np.ndarray:
    """Residual of the corrected gap equation, with D recomputed from `gap`."""
    return _residual(mt, kernel, gap, True)[0]


def check_solver(init, damping, tol, max_iter) -> None:
    """Raise ValidationError unless the solver settings lie in their valid domain."""
    for name, value in (("init", init), ("damping", damping), ("tol", tol)):
        if isinstance(value, (bool, np.bool_)):  # True would pass the range tests as 1.0
            raise ValidationError(f"solver.{name} must be a number, got {value!r}")
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


def _anderson_step(history: list):
    """The Anderson step over `history`, or None when its least-squares problem is singular.

    Each row of `history` (oldest first) is [f, d] for one iterate Delta: its
    residual f = rhs(Delta) - Delta and its damped step d = (1-b) Delta +
    b rhs(Delta).  gamma minimizes |f - dF gamma| over the row differences dF
    of the f's by ridge-regularized normal equations; the step is d - dD gamma
    for the newest row, with dD the row differences of the d's.
    """
    n = len(history[-1]) // 2
    diff = np.diff(history, axis=0)
    df = diff[:, :n]
    gram = df @ df.T
    gram.flat[:: len(gram) + 1] += ANDERSON_RIDGE * gram.trace()
    try:
        gamma = np.linalg.solve(gram, df @ history[-1][:n])
    except np.linalg.LinAlgError:
        return None
    return history[-1][n:] - gamma @ diff[:, n:]


@np.errstate(over="ignore", invalid="ignore")  # a non-finite iterate raises ConvergenceError
def _solve(mt, kernel, corrected, init, damping, tol, max_iter) -> GapSolution:
    """Damped steps Delta <- (1-b) Delta + b rhs(Delta), then Anderson steps; clamped and symmetrized.

    While the residual max |Delta - rhs(Delta)| exceeds ANDERSON_SWITCH the
    step is damped and the history empty.  At or below it each iterate's
    residual and damped step join a history of at most ANDERSON_DEPTH + 1
    rows, and the step is the Anderson step over that history.  An Anderson
    step with a negative entry, or a singular least-squares problem, clears
    the history and takes the damped step instead; `clamped` reports a damped
    step clamped to Delta >= 0.
    """
    check_solver(init, damping, tol, max_iter)
    xi, neg_half_u, pair = mt.xi, -0.5 * kernel.u, mt.pair
    u2 = kernel.u**2 if corrected else None
    row_mag = np.abs(kernel.u).sum(axis=1)
    delta = np.where(row_mag > 0, float(init), 0.0)
    clamped = False
    streak = 0
    iterations = 0
    converged = False
    trivial_stop = False
    history = []  # Anderson rows [f, d], oldest first; see _anderson_step
    for iterations in range(max_iter + 1):
        proposal = neg_half_u @ _weights(xi, u2, delta)[0]
        f = proposal - delta
        residual = float(np.abs(f).max())
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
        damped = (1.0 - damping) * delta + damping * proposal
        step = None
        if residual > ANDERSON_SWITCH:
            history.clear()
        else:
            history.append(np.concatenate((f, damped)))
            if len(history) > ANDERSON_DEPTH + 1:
                del history[0]
            if len(history) > 1:
                step = _anderson_step(history)
                if step is None or (step < 0).any():
                    history.clear()
                    step = None
        if step is None:
            step = damped
            if (step < 0).any():
                clamped = True
                step = np.maximum(step, 0.0)
        delta = 0.5 * (step + step[pair])
    weighted, dk, dsum = _weights(xi, u2, delta)
    residual_inf = float(np.abs(delta - neg_half_u @ weighted).max())
    if not math.isfinite(residual_inf):
        raise ConvergenceError("gap iterate became non-finite in the last update")
    gap = GapTable.from_delta(mt, delta)
    converged = converged or residual_inf <= tol
    corrected_fields = {}
    if corrected:
        corrected_fields = dict(
            dk=dk,
            dsum=dsum,
            max_factor_dev=float((4.0 * dk / (dsum + 2.0)).max()),
            nonpositive_factor=tuple(np.flatnonzero(correction_factor(dk, dsum) <= 0).tolist()),
        )
    return GapSolution(
        equation="new" if corrected else "classic",
        delta=gap,
        residual_inf=residual_inf,
        iterations=iterations,
        converged=converged,
        trivial=trivial_stop or (converged and float(delta.max()) <= 100.0 * tol),
        clamped=clamped,
        degenerate_modes=tuple(np.flatnonzero(gap.energy == 0).tolist()),
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
    """Solve the classic gap equation by damped, then Anderson-accelerated, iteration.

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
