"""Momentum lattice, single-particle energies and the pairing kernel.

Wave vectors are integer triples n scaled by 2*pi/L.  The mode list is
closed under negation; `pair` maps each mode index to the index of its
negative.  Single-particle energies default to xi_k = hbar^2 |k|^2/(2m) - mu
with hbar = 1 and 2m = 1, i.e. xi = |k|^2 - mu in desk units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .fock import check_mode_count, mode_cap, space_dim

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class ModeTable:
    """Ordered set of wave vectors with energies and the k <-> -k involution."""

    nvecs: tuple  # integer triples; physical k = (2*pi/L) * n
    xi: np.ndarray
    pair: np.ndarray  # pair[i] = index of -k_i
    L: float = TWO_PI
    mu: float = 0.0
    hbar: float = 1.0
    mass: float = 0.5  # electron mass m; 2m defaults to 1
    kmax: float | None = None

    @property
    def n_modes(self) -> int:
        return len(self.nvecs)

    @property
    def n_orbitals(self) -> int:
        return 2 * self.n_modes

    @property
    def dim(self) -> int:
        return space_dim(self.n_modes)

    def orb_up(self, i: int) -> int:
        """Spin-orbital index of (k_i, up)."""
        return 2 * i

    def orb_dn(self, i: int) -> int:
        """Spin-orbital index of (k_i, down)."""
        return 2 * i + 1

    def kvec(self, i: int) -> tuple:
        s = TWO_PI / self.L
        n = self.nvecs[i]
        return (s * n[0], s * n[1], s * n[2])

    def knorm(self, i: int) -> float:
        kx, ky, kz = self.kvec(i)
        return math.sqrt(kx * kx + ky * ky + kz * kz)


@dataclass(frozen=True, eq=False)
class Kernel:
    """Pairing interaction matrix U_{k,k'} (M x M, attractive convention U <= 0)."""

    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=np.float64))


def _xi_formula(nvecs, L: float, mu: float, hbar: float, mass: float) -> np.ndarray:
    s = TWO_PI / L
    k2 = np.array([(n[0] ** 2 + n[1] ** 2 + n[2] ** 2) * s * s for n in nvecs])
    return hbar * hbar * k2 / (2.0 * mass) - mu


def _pair_map(nvecs) -> np.ndarray:
    index = {n: i for i, n in enumerate(nvecs)}
    pair = np.empty(len(nvecs), dtype=np.int64)
    for i, n in enumerate(nvecs):
        neg = (-n[0], -n[1], -n[2])
        j = index.get(neg)
        if j is None:
            raise ValidationError(f"mode list not closed under negation: missing -k for k={n}")
        pair[i] = j
    return pair


def _check_scales(L: float, mass: float) -> None:
    """The box size and the mass divide xi = hbar^2 |k|^2 / (2m) - mu, so both must be positive."""
    if not L > 0:
        raise ValidationError(f"box size L must be positive, got {L!r}")
    if not mass > 0:
        raise ValidationError(f"mass m must be positive, got {mass!r}")


def build_lambda(
    L: float,
    kmax: float,
    mu: float = 0.0,
    hbar: float = 1.0,
    mass: float = 0.5,
) -> ModeTable:
    """All wave vectors (2*pi/L)(n1,n2,n3) with |k| <= kmax, sorted lexicographically.

    The shell test carries a 1e-8 relative slack so that truncated-decimal
    box sizes (e.g. L = 6.2831853 for 2*pi) keep their boundary shells.
    """
    _check_scales(L, mass)
    if not kmax > 0:
        raise ValidationError(f"kmax must be positive, got {kmax!r}")
    kcut = kmax * (1.0 + 1e-8)
    reach = kcut * L / TWO_PI
    cap = mode_cap()
    if not math.isfinite(reach):
        raise ResourceLimitError(f"L={L} and kmax={kmax} overflow the mode count, beyond the cap M<={cap}")
    nmax = math.floor(reach)
    # the ball holds the cube |n_i| <= nmax/sqrt(3); a box whose cube alone
    # passes the cap is rejected before its (2 nmax + 1)^3 triples are enumerated
    at_least = (2 * math.floor(nmax / math.sqrt(3)) + 1) ** 3
    if at_least > cap:
        raise ResourceLimitError(
            f"L={L} and kmax={kmax} give M>={at_least} modes, beyond the cap M<={cap} "
            "(set BCSLAB_DIM_CAP to override)"
        )
    scale = TWO_PI / L
    nvecs = []
    for n1 in range(-nmax, nmax + 1):
        for n2 in range(-nmax, nmax + 1):
            for n3 in range(-nmax, nmax + 1):
                if scale * math.sqrt(n1 * n1 + n2 * n2 + n3 * n3) <= kcut:
                    nvecs.append((n1, n2, n3))
    nvecs.sort()
    check_mode_count(len(nvecs))
    nvecs = tuple(nvecs)
    xi = _xi_formula(nvecs, L, mu, hbar, mass)
    return ModeTable(
        nvecs=nvecs, xi=xi, pair=_pair_map(nvecs), L=L, mu=mu, hbar=hbar, mass=mass, kmax=kmax
    )


def explicit_modes(
    ks,
    xi_override=None,
    L: float = TWO_PI,
    mu: float = 0.0,
    hbar: float = 1.0,
    mass: float = 0.5,
) -> ModeTable:
    """Mode table from a hand-picked list of integer triples.

    The list must be closed under negation; an xi override, if given, must
    be constant on each {k, -k} orbit.
    """
    _check_scales(L, mass)
    nvecs = tuple(tuple(int(c) for c in k) for k in ks)
    if len(set(nvecs)) != len(nvecs):
        raise ValidationError("duplicate wave vectors in mode list")
    check_mode_count(len(nvecs))
    pair = _pair_map(nvecs)
    if xi_override is not None:
        xi = np.asarray(xi_override, dtype=np.float64)
        if xi.shape != (len(nvecs),):
            raise ValidationError(
                f"xi override has {xi.size} entries for {len(nvecs)} modes"
            )
        for i in range(len(nvecs)):
            if xi[i] != xi[pair[i]]:
                raise ValidationError(
                    f"xi override breaks xi(-k) = xi(k) at k={nvecs[i]}: "
                    f"{xi[i]} vs {xi[pair[i]]}"
                )
    else:
        xi = _xi_formula(nvecs, L, mu, hbar, mass)
    return ModeTable(nvecs=nvecs, xi=xi, pair=pair, L=L, mu=mu, hbar=hbar, mass=mass)


def validate_kernel(kernel: Kernel, mt: ModeTable) -> list:
    """Check the structural constraints on U; returns violation messages.

    Constraints (exact comparisons, no tolerance): finite entries,
    U_{k,k'} <= 0, symmetry U_{k',k} = U_{k,k'}, parity U_{-k,-k'} = U_{k,k'},
    zero diagonal.
    """
    u = kernel.u
    m = mt.n_modes
    violations = []
    if u.shape != (m, m):
        return [f"kernel shape {u.shape} does not match mode count {m}"]
    if not np.all(np.isfinite(u)):
        return ["kernel entries must be finite"]
    for i in range(m):
        if u[i, i] != 0.0:
            violations.append(f"nonzero diagonal at k={mt.nvecs[i]}: {u[i, i]}")
    for i in range(m):
        for j in range(m):
            if u[i, j] > 0.0:
                violations.append(
                    f"positive entry at (k={mt.nvecs[i]}, k'={mt.nvecs[j]}): {u[i, j]}"
                )
            if u[i, j] != u[j, i]:
                violations.append(
                    f"symmetry broken at (k={mt.nvecs[i]}, k'={mt.nvecs[j]}): "
                    f"{u[i, j]} vs {u[j, i]}"
                )
            pi, pj = mt.pair[i], mt.pair[j]
            if u[i, j] != u[pi, pj]:
                violations.append(
                    f"parity broken at (k={mt.nvecs[i]}, k'={mt.nvecs[j]}): "
                    f"{u[i, j]} vs U(-k,-k')={u[pi, pj]}"
                )
    return violations


def separable_kernel(mt: ModeTable, g: float, shell=None) -> Kernel:
    """Attractive separable kernel U_{k,k'} = -g * w_k * w_k' with zero diagonal.

    `shell` is a predicate on the physical |k|; modes outside the shell get
    weight 0.  Depending on |k| only, it preserves the parity symmetry.
    """
    if g < 0:
        raise ValidationError("coupling g must be nonnegative")
    m = mt.n_modes
    w = np.ones(m)
    if shell is not None:
        w = np.array([1.0 if shell(mt.knorm(i)) else 0.0 for i in range(m)])
    u = -g * np.outer(w, w)
    np.fill_diagonal(u, 0.0)
    return Kernel(u=u)


def dense_matrix_kernel(mt: ModeTable, matrix) -> Kernel:
    """Kernel from an explicit matrix, validated against the mode table."""
    kernel = Kernel(u=np.asarray(matrix, dtype=np.float64))
    violations = validate_kernel(kernel, mt)
    if violations:
        raise ValidationError("; ".join(violations))
    return kernel


def permuted_instance(mt: ModeTable, kernel: Kernel, perm) -> tuple:
    """Relabel the mode enumeration by `perm` (new index i holds old mode perm[i]).

    Physical scalars (energies, spectra, gap multisets) must not change;
    used by the ordering-invariance checks.
    """
    perm = np.asarray(perm, dtype=np.int64)
    m = mt.n_modes
    if sorted(perm.tolist()) != list(range(m)):
        raise ValidationError("perm must be a permutation of range(M)")
    nvecs = tuple(mt.nvecs[p] for p in perm)
    xi = mt.xi[perm]
    mt2 = ModeTable(
        nvecs=nvecs,
        xi=xi,
        pair=_pair_map(nvecs),
        L=mt.L,
        mu=mt.mu,
        hbar=mt.hbar,
        mass=mt.mass,
        kmax=mt.kmax,
    )
    u2 = kernel.u[np.ix_(perm, perm)]
    return mt2, Kernel(u=u2)
