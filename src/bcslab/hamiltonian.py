"""Operators of the pairing model: H, G, K = i G_B, H_M, H' and the per-mode algebra.

Per mode k the building blocks are

  B_k = C_{-k,dn} C_{k,up}                    (pair annihilator)
  h_k = C*_{k,up} C_{k,up} + C*_{-k,dn} C_{-k,dn}
  v_k = B_k + B*_k

All constant energy offsets are carried explicitly as multiples of the
identity; nothing is folded into implicit zero points.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_array

from .errors import ValidationError
from .fock import adjoint, identity_op, ladder_matrix
from .gapsolve import AngleTable, GapTable
from .model import Kernel, ModeTable, validate_kernel


def pair_annihilator(mt: ModeTable, i: int) -> csr_array:
    """B_k = C_{-k,dn} C_{k,up} for mode index i (self-paired k=0 included)."""
    m = mt.n_modes
    down = ladder_matrix(mt.orb_dn(mt.pair[i]), m)
    up = ladder_matrix(mt.orb_up(i), m)
    return csr_array(down @ up)


def pair_number(mt: ModeTable, i: int) -> csr_array:
    """h_k = n_{k,up} + n_{-k,dn}."""
    m = mt.n_modes
    up = ladder_matrix(mt.orb_up(i), m)
    down = ladder_matrix(mt.orb_dn(mt.pair[i]), m)
    return csr_array(adjoint(up) @ up + adjoint(down) @ down)


def pair_exchange(mt: ModeTable, i: int) -> csr_array:
    """v_k = B_k + B*_k."""
    b = pair_annihilator(mt, i)
    return csr_array(b + adjoint(b))


def build_G(mt: ModeTable) -> csr_array:
    """Total number operator G = sum over spin-orbitals of C*C (diagonal)."""
    m = mt.n_modes
    total = None
    for j in range(mt.n_orbitals):
        c = ladder_matrix(j, m)
        n_j = adjoint(c) @ c
        total = n_j if total is None else total + n_j
    return csr_array(total)


def kinetic_term(mt: ModeTable) -> csr_array:
    """sum_{k,s} xi_k C*_{ks} C_{ks}."""
    m = mt.n_modes
    t = csr_array((mt.dim, mt.dim))
    for i in range(m):
        for j in (mt.orb_up(i), mt.orb_dn(i)):
            c = ladder_matrix(j, m)
            t = t + mt.xi[i] * (adjoint(c) @ c)
    return t


def build_H(mt: ModeTable, kernel: Kernel) -> csr_array:
    """H = sum_{k,s} xi_k C*_{ks} C_{ks} + sum_{k,k'} U_{k,k'} B*_{k'} B_k."""
    violations = validate_kernel(kernel, mt)
    if violations:
        raise ValidationError("; ".join(violations))
    m = mt.n_modes
    h = kinetic_term(mt)
    pairs = [pair_annihilator(mt, i) for i in range(m)]
    for kp in range(m):
        bdag = adjoint(pairs[kp])
        for k in range(m):
            u = kernel.u[k, kp]
            if u != 0.0:
                h = h + u * (bdag @ pairs[k])
    return csr_array(h)


def build_GB(mt: ModeTable, angles: AngleTable) -> csr_array:
    """Real antisymmetric K = i G_B = sum_k theta_k (B*_k - B_k); the rotation exp(i G_B) is exp(K)."""
    angles.validate(mt)
    k = csr_array((mt.dim, mt.dim))
    for i in range(mt.n_modes):
        t = angles.theta[i]
        if t != 0.0:
            b = pair_annihilator(mt, i)
            k = k + t * (adjoint(b) - b)
    return k


def build_HM(mt: ModeTable, gap: GapTable, w: np.ndarray) -> csr_array:
    """Mean-field Hamiltonian for gap table Delta and pairing expectations w.

    H_M = sum xi C*C - sum_k Delta_k v_k + (sum_k Delta_k w_k) I.  The same
    formula serves the classic and corrected variants; they differ only in
    which state supplies w_k = (state, B_k state).
    """
    gap.validate(mt)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (mt.n_modes,):
        raise ValidationError(f"expectation table has {w.size} entries for {mt.n_modes} modes")
    hm = kinetic_term(mt)
    for i in range(mt.n_modes):
        if gap.delta[i] != 0.0:
            hm = hm - gap.delta[i] * pair_exchange(mt, i)
    offset = float(np.dot(gap.delta, w))
    if offset != 0.0:
        hm = hm + offset * identity_op(mt.dim)
    return csr_array(hm)


def build_Hprime(mt: ModeTable, kernel: Kernel, angles: AngleTable) -> csr_array:
    """Residual interaction H' = H - H_M in its expanded form.

    H' = sum_{k,k'} U_{k,k'} { B*_{k'} B_k - C_{k'} S_{k'} (B*_k + B_k)
                               + C_k S_k C_{k'} S_{k'} I }
    with C = cos theta, S = sin theta.
    """
    angles.validate(mt)
    m = mt.n_modes
    cs = angles.cos_t * angles.sin_t
    hp = csr_array((mt.dim, mt.dim))
    pairs = [pair_annihilator(mt, i) for i in range(m)]
    dags = [adjoint(b) for b in pairs]
    const = 0.0
    for kp in range(m):
        for k in range(m):
            u = kernel.u[k, kp]
            if u == 0.0:
                continue
            hp = hp + u * (dags[kp] @ pairs[k])
            hp = hp - (u * cs[kp]) * (dags[k] + pairs[k])
            const += u * cs[k] * cs[kp]
    if const != 0.0:
        hp = hp + const * identity_op(mt.dim)
    return csr_array(hp)


class OperatorBundle:
    """Cached matrices for one instance: H, G and the per-mode B_k, h_k, v_k."""

    def __init__(self, mt: ModeTable, kernel: Kernel):
        self.H = build_H(mt, kernel)
        self.G = build_G(mt)
        self.B = [pair_annihilator(mt, i) for i in range(mt.n_modes)]
        self.h = [pair_number(mt, i) for i in range(mt.n_modes)]
        self.v = [pair_exchange(mt, i) for i in range(mt.n_modes)]
