"""Operators of the pairing model: H, G, K = i G_B, H_M, H' and the per-mode algebra.

`OperatorBundle` is an on-demand table of the angle-independent operators
of one instance, all built from its 2M ladders C_j:

  B_k = C_{-k,dn} C_{k,up}                    (pair annihilator)
  B*_k                                        (pair creator)
  h_k = C*_{k,up} C_{k,up} + C*_{-k,dn} C_{-k,dn}
  v_k = B_k + B*_k
  G   = sum_j C*_j C_j                        (number operator)
  T   = sum_{k,s} xi_k C*_{ks} C_{ks}         (kinetic term)
  H   = T + sum_{k,k'} U_{k,k'} B*_{k'} B_k
  I                                           (identity)

Each is built from its `_BUILD` entry the first time it is read and kept;
`del` releases it, and a later read builds it again.  The ladders depend
on the pair count only, so a relabelled mode table of the same M (the
ordering check) may be given the ladders of the instance it relabels.
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


def _number_terms(ops, name: str):
    """h_k, G and T from the transient number operators C*_j C_j; keeps those not held yet, returns `name`."""
    mt, numbers = ops.mt, [adjoint(c) @ c for c in ops.C]
    orbitals = [(i, j) for i in range(mt.n_modes) for j in (mt.orb_up(i), mt.orb_dn(i))]
    terms = {
        "h": [numbers[mt.orb_up(i)] + numbers[mt.orb_dn(mt.pair[i])] for i in range(mt.n_modes)],
        "G": sum(numbers[1:], numbers[0]),
        "T": sum((mt.xi[i] * numbers[j] for i, j in orbitals), csr_array((mt.dim, mt.dim))),
    }
    for key, value in terms.items():
        ops.__dict__.setdefault(key, value)
    return terms[name]


def _hamiltonian(ops) -> csr_array:
    """H = T + sum_{k,k'} U_{k,k'} B*_{k'} B_k over the nonzero U_{k,k'}."""
    u, m = ops.kernel.u, ops.mt.n_modes
    return sum((u[k, kp] * (ops.Bd[kp] @ ops.B[k]) for kp in range(m) for k in range(m) if u[k, kp] != 0.0), ops.T)


class OperatorBundle:
    """The Fock operators of one instance, each built on first read from its ladders.

    C[j] is the annihilator of spin-orbital j, and B, Bd, h and v hold B_k,
    B*_k, h_k and v_k by mode index.  The kernel is validated first; the
    `ladders`, when given, must be the 2M matrices `ladder_matrix(j, M)` in
    orbital order.  `del ops.name` releases a name of `_BUILD`, and releasing
    one that was never built does nothing.
    """

    _BUILD = {
        "C": lambda s: [ladder_matrix(j, s.mt.n_modes) for j in range(s.mt.n_orbitals)],
        "B": lambda s: [s.C[s.mt.orb_dn(s.mt.pair[i])] @ s.C[s.mt.orb_up(i)] for i in range(s.mt.n_modes)],
        "Bd": lambda s: [adjoint(b) for b in s.B],
        "v": lambda s: [b + bd for b, bd in zip(s.B, s.Bd)],
        "I": lambda s: identity_op(s.mt.dim),
        # h_k, G and T share the number operators, which are not held
        "h": lambda s: _number_terms(s, "h"),
        "G": lambda s: _number_terms(s, "G"),
        "T": lambda s: _number_terms(s, "T"),
        "H": _hamiltonian,
    }

    def __init__(self, mt: ModeTable, kernel: Kernel, ladders: list | None = None):
        violations = validate_kernel(kernel, mt)
        if violations:
            raise ValidationError("; ".join(violations))
        if ladders is not None:
            if len(ladders) != mt.n_orbitals or any(c.shape != (mt.dim, mt.dim) for c in ladders):
                raise ValidationError(f"need {mt.n_orbitals} ladders of dimension {mt.dim}")
            self.C = list(ladders)
        self.mt, self.kernel = mt, kernel

    def __getattr__(self, name):
        if name not in self._BUILD:
            raise AttributeError(f"{type(self).__name__} has no quantity {name!r}")
        value = self.__dict__[name] = self._BUILD[name](self)
        return value

    def __delattr__(self, name):
        self.__dict__.pop(name, None)


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
