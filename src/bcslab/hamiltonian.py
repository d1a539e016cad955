"""Operators of the pairing model: H, G, K = i G_B, H_M, H' and the per-mode algebra.

`OperatorBundle` turns the 2M ladders C_j of one instance into its
angle-independent operators, each built once:

  B_k = C_{-k,dn} C_{k,up}                    (pair annihilator)
  B*_k                                        (pair creator)
  h_k = C*_{k,up} C_{k,up} + C*_{-k,dn} C_{-k,dn}
  v_k = B_k + B*_k
  G   = sum_j C*_j C_j                        (number operator)
  T   = sum_{k,s} xi_k C*_{ks} C_{ks}         (kinetic term)
  H   = T + sum_{k,k'} U_{k,k'} B*_{k'} B_k
  I                                           (identity)

Its base `PairOperators` holds the ladders, B_k and B*_k alone: what the
states and the gammas read.  The ladders depend on the pair count only, so
a relabelled mode table of the same M (the ordering check) builds its
`PairOperators` from the ladders of the instance it relabels.
`build_GB`, `build_HM` and `build_Hprime` read their B_k, B*_k, v_k, T
and I from a bundle.  All constant energy offsets are carried explicitly
as multiples of the identity; nothing is folded into implicit zero points.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_array

from .errors import ValidationError
from .fock import adjoint, identity_op, ladder_matrix
from .gapsolve import GapTable
from .model import Kernel, ModeTable, validate_kernel


class PairOperators:
    """The ladders of one mode table and the pair operators built from them.

    C[j] is the annihilator of spin-orbital j, and B and Bd hold B_k and
    B*_k by mode index.  `ladders` are the 2M matrices `ladder_matrix(j, M)`
    in orbital order; they do not depend on the mode table, so any table
    with the same pair count reads the same set.
    """

    def __init__(self, mt: ModeTable, ladders: list):
        if len(ladders) != mt.n_orbitals or any(c.shape != (mt.dim, mt.dim) for c in ladders):
            raise ValidationError(f"need {mt.n_orbitals} ladders of dimension {mt.dim}")
        self.mt = mt
        self.C = list(ladders)
        m = mt.n_modes
        self.B = [self.C[mt.orb_dn(mt.pair[i])] @ self.C[mt.orb_up(i)] for i in range(m)]
        self.Bd = [adjoint(b) for b in self.B]


class OperatorBundle(PairOperators):
    """The Fock operators of one instance, each built once from its ladders.

    Beyond the ladders, B and Bd of `PairOperators`: h and v hold h_k and
    v_k by mode index; G is the number operator, T the kinetic term, H the
    pairing Hamiltonian of `kernel`, which is validated first, and I the
    identity.  A reader that is done with an operator may `del` it from
    the bundle; a later read then raises AttributeError, nothing rebuilds it.
    """

    def __init__(self, mt: ModeTable, kernel: Kernel):
        violations = validate_kernel(kernel, mt)
        if violations:
            raise ValidationError("; ".join(violations))
        m = mt.n_modes
        super().__init__(mt, [ladder_matrix(j, m) for j in range(mt.n_orbitals)])
        numbers = [adjoint(c) @ c for c in self.C]
        self.h = [numbers[mt.orb_up(i)] + numbers[mt.orb_dn(mt.pair[i])] for i in range(m)]
        self.v = [b + bd for b, bd in zip(self.B, self.Bd)]
        self.I = identity_op(mt.dim)

        total = numbers[0]
        for n_j in numbers[1:]:
            total = total + n_j
        self.G = total

        t = csr_array((mt.dim, mt.dim))
        for i in range(m):
            for j in (mt.orb_up(i), mt.orb_dn(i)):
                t = t + mt.xi[i] * numbers[j]
        self.T = t

        h = t
        for kp in range(m):
            for k in range(m):
                u = kernel.u[k, kp]
                if u != 0.0:
                    h = h + u * (self.Bd[kp] @ self.B[k])
        self.H = h


def build_GB(ops: OperatorBundle, gap: GapTable) -> csr_array:
    """Real antisymmetric K = i G_B = sum_k theta_k (B*_k - B_k); the rotation exp(i G_B) is exp(K)."""
    mt = ops.mt
    gap.validate(mt)
    k = csr_array((mt.dim, mt.dim))
    for i in range(mt.n_modes):
        t = gap.theta[i]
        if t != 0.0:
            k = k + t * (ops.Bd[i] - ops.B[i])
    return k


def build_HM(ops: OperatorBundle, gap: GapTable, w: np.ndarray) -> csr_array:
    """Mean-field Hamiltonian for gap table Delta and pairing expectations w.

    H_M = sum xi C*C - sum_k Delta_k v_k + (sum_k Delta_k w_k) I.  The same
    formula serves the classic and corrected variants; they differ only in
    which state supplies w_k = (state, B_k state).
    """
    mt = ops.mt
    gap.validate(mt)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (mt.n_modes,):
        raise ValidationError(f"expectation table has {w.size} entries for {mt.n_modes} modes")
    hm = ops.T
    for i in range(mt.n_modes):
        if gap.delta[i] != 0.0:
            hm = hm - gap.delta[i] * ops.v[i]
    offset = float(np.dot(gap.delta, w))
    if offset != 0.0:
        hm = hm + offset * ops.I
    return csr_array(hm)


def build_Hprime(ops: OperatorBundle, kernel: Kernel, gap: GapTable) -> csr_array:
    """Residual interaction H' = H - H_M in its expanded form.

    H' = sum_{k,k'} U_{k,k'} { B*_{k'} B_k - C_{k'} S_{k'} v_k
                               + C_k S_k C_{k'} S_{k'} I }
    with C = cos theta, S = sin theta.
    """
    mt = ops.mt
    gap.validate(mt)
    m = mt.n_modes
    cs = gap.cos_t * gap.sin_t
    hp = csr_array((mt.dim, mt.dim))
    const = 0.0
    for kp in range(m):
        for k in range(m):
            u = kernel.u[k, kp]
            if u == 0.0:
                continue
            hp = hp + u * (ops.Bd[kp] @ ops.B[k])
            hp = hp - (u * cs[kp]) * ops.v[k]
            const += u * cs[k] * cs[kp]
    if const != 0.0:
        hp = hp + const * ops.I
    return hp
