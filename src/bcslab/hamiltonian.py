"""Operators of the pairing model: H, G, K = i G_B, H_M, H' and the per-mode algebra.

`OperatorBundle` is an on-demand table of the angle-independent operators
of one instance, all built from its 2M ladders C_j:

  B_k = C_{-k,dn} C_{k,up}                    (pair annihilator)
  B*_k                                        (pair creator)
  h_k = C*_{k,up} C_{k,up} + C*_{-k,dn} C_{-k,dn}
  v_k = B_k + B*_k
  G   = sum_k h_k                             (number operator)
  T   = sum_k xi_k h_k                        (kinetic term)
  H   = T + sum_{k,k'} U_{k,k'} B*_{k'} B_k
  I                                           (identity)

G = sum_j C*_j C_j and T = sum_{k,s} xi_k C*_{ks} C_{ks} are these sums
because every orbital lies in exactly one pair (k, up), (-k, dn) and
xi_{-k} = xi_k; the C*_j C_j live only inside the build of the h_k.
Each operator is built from its `_BUILD` entry on first read and kept;
`del` releases it, and a later read builds it again.  The ladders depend
on the pair count only, so a relabelled mode table of the same M (the
ordering check) may be given the ladders of the instance it relabels.
`build_GB`, `build_HM` and `build_Hprime` read their operators and the
kernel from a bundle.  All constant energy offsets are carried explicitly
as multiples of the identity; nothing is folded into implicit zero points.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .fock import XorOp, identity_op, ladder_matrix
from .gapsolve import GapTable
from .model import Kernel, ModeTable, validate_kernel


def couplings(kernel: Kernel) -> list:
    """(k, k', U_{k,k'}) over the nonzero entries of the kernel, k' outer and k inner."""
    u = kernel.u
    return [(k, kp, u[k, kp]) for kp in range(len(u)) for k in range(len(u)) if u[k, kp] != 0.0]


def _pair_numbers(ops) -> list:
    """h_k = C*_{k,up} C_{k,up} + C*_{-k,dn} C_{-k,dn} from the ladders; the number operators are not held."""
    mt, c = ops.mt, ops.C
    orbitals = ((mt.orb_up(i), mt.orb_dn(mt.pair[i])) for i in range(mt.n_modes))
    return [c[up].adjoint() @ c[up] + c[dn].adjoint() @ c[dn] for up, dn in orbitals]


def _hamiltonian(ops) -> XorOp:
    """H = T + sum_{k,k'} U_{k,k'} B*_{k'} B_k over the nonzero U_{k,k'}."""
    return sum((u * (ops.Bd[kp] @ ops.B[k]) for k, kp, u in couplings(ops.kernel)), ops.T)


class OperatorBundle:
    """The Fock operators of one instance, each built on first read from its ladders.

    C[j] is the annihilator of spin-orbital j, and B, Bd, h and v hold B_k,
    B*_k, h_k and v_k by mode index.  The kernel is validated first and a
    xi whose T overflows is refused; the `ladders`, when given, must be the
    2M matrices `ladder_matrix(j, M)` in orbital order.  `del ops.name`
    releases a name of `_BUILD`, and releasing one that was never built
    does nothing.
    """

    _BUILD = {
        "C": lambda s: [ladder_matrix(j, s.mt.n_modes) for j in range(s.mt.n_orbitals)],
        "B": lambda s: [s.C[s.mt.orb_dn(s.mt.pair[i])] @ s.C[s.mt.orb_up(i)] for i in range(s.mt.n_modes)],
        "Bd": lambda s: [b.adjoint() for b in s.B],
        "v": lambda s: [b + bd for b, bd in zip(s.B, s.Bd)],
        "I": lambda s: identity_op(s.mt.dim),
        "h": _pair_numbers,
        "G": lambda s: sum(s.h[1:], s.h[0]),
        "T": lambda s: sum((xi * h for xi, h in zip(s.mt.xi, s.h)), XorOp(s.mt.dim)),
        "H": _hamiltonian,
    }

    def __init__(self, mt: ModeTable, kernel: Kernel, ladders: list | None = None):
        violations = validate_kernel(kernel, mt)
        if violations:
            raise ValidationError("; ".join(violations))
        # 2 sum_k |xi_k| bounds every entry of T; a Python float sum overflows to inf without a warning
        if not np.isfinite(2.0 * sum(map(abs, mt.xi.tolist()))):
            raise ValidationError("kinetic term overflows: 2 sum_k |xi_k| is not finite")
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


def build_GB(ops: OperatorBundle, gap: GapTable) -> XorOp:
    """Real antisymmetric K = i G_B = sum_k theta_k (B*_k - B_k); the rotation exp(i G_B) is exp(K)."""
    mt = ops.mt
    gap.validate(mt)
    k = XorOp(mt.dim)
    for i in range(mt.n_modes):
        k = k + gap.theta[i] * (ops.Bd[i] - ops.B[i])
    return k


def build_HM(ops: OperatorBundle, gap: GapTable, w: np.ndarray) -> XorOp:
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
        hm = hm - gap.delta[i] * ops.v[i]
    return hm + float(np.dot(gap.delta, w)) * ops.I


def build_Hprime(ops: OperatorBundle, gap: GapTable) -> XorOp:
    """Residual interaction H' = H - H_M in its expanded form, over the bundle's kernel.

    H' = sum_{k,k'} U_{k,k'} { B*_{k'} B_k - C_{k'} S_{k'} v_k
                               + C_k S_k C_{k'} S_{k'} I }
    with C = cos theta, S = sin theta.
    """
    mt = ops.mt
    gap.validate(mt)
    cs = gap.cos_t * gap.sin_t
    hp = XorOp(mt.dim)
    const = 0.0
    for k, kp, u in couplings(ops.kernel):
        hp = hp + u * (ops.Bd[kp] @ ops.B[k])
        hp = hp - (u * cs[kp]) * ops.v[k]
        const += u * cs[k] * cs[kp]
    return hp + const * ops.I
