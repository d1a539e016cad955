"""Momentum lattice, single-particle energies and the pairing kernel.

Wave vectors are integer triples n scaled by 2*pi/L.  `ModeTable` itself
enforces the lattice rule, whichever factory built the table: distinct
triples, at least one and at most the mode cap, closed under negation, a
finite box size L > 0, xi finite and even in k.  `pair` maps each mode
index to the index of its negative.
Single-particle energies default to xi_k = hbar^2 |k|^2/(2m) - mu with
hbar = 1 and 2m = 1, i.e. xi = |k|^2 - mu in desk units.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .fock import check_mode_count, mode_cap, space_dim

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class ModeTable:
    """Ordered set of wave vectors with energies and the k <-> -k involution.

    Construction raises ValidationError for a table that breaks the lattice
    rule and ResourceLimitError beyond the mode cap; `pair` is derived.
    """

    nvecs: tuple  # integer triples; physical k = (2*pi/L) * n
    xi: np.ndarray
    L: float = TWO_PI
    pair: np.ndarray = field(init=False)  # pair[i] = index of -k_i

    def __post_init__(self):
        nvecs = tuple(self.nvecs)
        if not nvecs:
            raise ValidationError("mode list is empty: the lattice needs at least one wave vector")
        for n in nvecs:
            if not (isinstance(n, tuple) and len(n) == 3 and all(isinstance(c, int) for c in n)):
                raise ValidationError(f"wave vectors must be integer triples, got {n!r}")
        if len(set(nvecs)) != len(nvecs):
            raise ValidationError("duplicate wave vectors in mode list")
        check_mode_count(len(nvecs))
        if not (math.isfinite(self.L) and self.L > 0):
            raise ValidationError(f"box size L must be positive and finite, got {self.L!r}")
        pair = _pair_map(nvecs)
        xi = np.array(self.xi, dtype=np.float64)
        if xi.shape != (len(nvecs),):
            raise ValidationError(f"xi has {xi.size} entries for {len(nvecs)} modes")
        for i, j in enumerate(pair):
            if not (math.isfinite(xi[i]) and xi[i] == xi[j]):
                raise ValidationError(
                    f"xi must be finite and even in k: xi(k)={xi[i]}, xi(-k)={xi[j]} at k={_kstr(nvecs[i])}"
                )
        object.__setattr__(self, "nvecs", nvecs)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "pair", pair)

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


def number_text(x) -> str:
    """A number for a message as %.6g, so 1e300 prints as 1e+300 and 10**400 as 1e+400."""
    if isinstance(x, int) and abs(x) > sys.float_info.max:
        from decimal import Decimal  # an integer past the float range has no float

        x = Decimal(x).normalize()  # no trailing zeros, so it prints like a float
    return f"{x:.6g}"


def _kstr(n) -> str:
    """Wave vector n for a message, each component through `number_text`."""
    return "(" + ", ".join(number_text(c) for c in n) + ")"


def _xi_formula(nvecs, L: float, mu: float, hbar: float, mass: float) -> list:
    """hbar^2 |k|^2/(2m) - mu per triple, in Python floats.

    An overflow gives inf or nan without a numpy warning, and `ModeTable`
    rejects it.
    """
    s = TWO_PI / L
    return [hbar * hbar * (sum(float(c) * float(c) for c in n) * s * s) / (2.0 * mass) - mu for n in nvecs]


def _pair_map(nvecs) -> np.ndarray:
    index = {n: i for i, n in enumerate(nvecs)}
    pair = np.empty(len(nvecs), dtype=np.int64)
    for i, n in enumerate(nvecs):
        neg = (-n[0], -n[1], -n[2])
        j = index.get(neg)
        if j is None:
            raise ValidationError(f"mode list not closed under negation: missing -k for k={_kstr(n)}")
        pair[i] = j
    return pair


def _check_scales(L: float, mass: float) -> None:
    """The box size and the mass divide xi = hbar^2 |k|^2 / (2m) - mu, so both must be positive, and L finite."""
    if not (math.isfinite(L) and L > 0):
        raise ValidationError(f"box size L must be positive and finite, got {L!r}")
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
    if not (math.isfinite(kmax) and kmax > 0):
        raise ValidationError(f"kmax must be positive and finite, got {kmax!r}")
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
            f"L={L} and kmax={kmax} give M>={number_text(at_least)} modes, beyond the cap M<={cap} "
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
    return ModeTable(nvecs=tuple(nvecs), xi=_xi_formula(nvecs, L, mu, hbar, mass), L=L)


def explicit_modes(
    ks,
    xi_override=None,
    L: float = TWO_PI,
    mu: float = 0.0,
    hbar: float = 1.0,
    mass: float = 0.5,
) -> ModeTable:
    """Mode table from a hand-picked list of integer triples.

    An xi override replaces the formula; `ModeTable` checks both the list
    and the energies.
    """
    _check_scales(L, mass)
    nvecs = tuple(tuple(int(c) for c in k) for k in ks)
    xi = _xi_formula(nvecs, L, mu, hbar, mass) if xi_override is None else xi_override
    return ModeTable(nvecs=nvecs, xi=xi, L=L)


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
    ks = [_kstr(n) for n in mt.nvecs]
    for i in range(m):
        if u[i, i] != 0.0:
            violations.append(f"nonzero diagonal at k={ks[i]}: {u[i, i]}")
    for i in range(m):
        for j in range(m):
            if u[i, j] > 0.0:
                violations.append(f"positive entry at (k={ks[i]}, k'={ks[j]}): {u[i, j]}")
            if u[i, j] != u[j, i]:
                violations.append(f"symmetry broken at (k={ks[i]}, k'={ks[j]}): {u[i, j]} vs {u[j, i]}")
            pi, pj = mt.pair[i], mt.pair[j]
            if u[i, j] != u[pi, pj]:
                violations.append(f"parity broken at (k={ks[i]}, k'={ks[j]}): {u[i, j]} vs U(-k,-k')={u[pi, pj]}")
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


def permuted_instance(mt: ModeTable, kernel: Kernel, perm) -> tuple:
    """Relabel the mode enumeration by `perm` (new index i holds old mode perm[i]).

    Physical scalars (energies, spectra, gap multisets) must not change;
    used by the ordering-invariance checks.
    """
    perm = np.asarray(perm, dtype=np.int64)
    m = mt.n_modes
    if sorted(perm.tolist()) != list(range(m)):
        raise ValidationError("perm must be a permutation of range(M)")
    mt2 = ModeTable(nvecs=tuple(mt.nvecs[p] for p in perm), xi=mt.xi[perm], L=mt.L)
    u2 = kernel.u[np.ix_(perm, perm)]
    return mt2, Kernel(u=u2)
