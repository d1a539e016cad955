"""Reference states and quasiparticle operators.

Builds the paired product state from the bundle's pair creators B*_k (the
independent route exp(i G_B)|0> = exp(K)|0> is the vacuum column of
`PairSectors(mt).exponential(build_GB(ops, gap))`), the filled Fermi
sea as its Delta = 0 case, the closed-form rotated quasiparticle operators
gamma, the four-quasiparticle correction vector Phi, and the normalized
corrected state (Psi_ref + Phi)/sqrt(1 + (Phi,Phi)), all real.
`quartet_sum` applies the gamma* four-strings for Phi and the H' Psi_B
expansion; it takes the gamma list and applies each gamma* as the
transposed product psi @ gamma, which the real gammas allow.  `pair_table` gives
the pair expectations (state, B_k state) that the mean-field Hamiltonian
and the self-consistency checks read.

The states and the gammas read their ladders and pair operators from an
`OperatorBundle`, which builds only the ones read, and their angles from a
`GapTable`.  The same constructions serve the classic and corrected gap
equations: feed them whichever gap table is in play.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fock import expectation, vacuum_state
from .gapsolve import EPS_GUARD, GapTable
from .hamiltonian import OperatorBundle
from .model import Kernel, ModeTable


def bcs_state(ops: OperatorBundle, gap: GapTable) -> np.ndarray:
    """Paired product state prod_k (cos theta_k + sin theta_k C*_{k,up} C*_{-k,dn}) |0>."""
    mt = ops.mt
    gap.validate(mt)
    v = vacuum_state(mt.n_modes)
    for i in reversed(range(mt.n_modes)):
        c, s = gap.cos_t[i], gap.sin_t[i]
        if s == 0.0:
            v = c * v
            continue
        v = c * v + s * (ops.Bd[i] @ v)
    return v


def fermi_vacuum(ops: OperatorBundle) -> np.ndarray:
    """Normal state: the paired product state at Delta = 0.

    A mode with xi_k <= 0 gets cos theta = 0 and sin theta = 1 exactly
    (xi = 0 through the E = 0 convention), so it contributes
    C*_{k,up} C*_{-k,dn}; every other mode stays empty.
    """
    mt = ops.mt
    return bcs_state(ops, GapTable.from_delta(mt, np.zeros(mt.n_modes)))


def pair_table(ops: OperatorBundle, state: np.ndarray) -> np.ndarray:
    """Pair expectations w_k = (state, B_k state) by mode index."""
    return np.array([expectation(state, b, state) for b in ops.B])


def quasi_ops(ops: OperatorBundle, gap: GapTable) -> list:
    """Quasiparticle annihilators in spin-orbital order: quasi[j] is the rotated C_j,

        gamma_{k,up} = cos theta_k C_{k,up} - sin theta_k C*_{-k,dn}
        gamma_{k,dn} = sin theta_k C*_{-k,up} + cos theta_k C_{k,dn}
    """
    mt, ladders = ops.mt, ops.C
    gap.validate(mt)
    quasi = []
    for i in range(mt.n_modes):
        c, s = gap.cos_t[i], gap.sin_t[i]
        ann_up = ladders[mt.orb_up(i)]
        cre_dn_partner = ladders[mt.orb_dn(mt.pair[i])].adjoint()
        quasi.append(c * ann_up - s * cre_dn_partner)
        ann_dn = ladders[mt.orb_dn(i)]
        cre_up_partner = ladders[mt.orb_up(mt.pair[i])].adjoint()
        quasi.append(s * cre_up_partner + c * ann_dn)
    return quasi


def quartet_sum(mt: ModeTable, quasi: list, terms, psi: np.ndarray) -> np.ndarray:
    """sum over (p, p', c) in `terms` of c gamma*_{p,up} gamma*_{-p,dn} gamma*_{p',up} gamma*_{-p',dn} psi.

    `quasi` holds the real gammas of `quasi_ops` in spin-orbital order.
    Each gamma* is applied to vectors only, as the transposed product
    psi @ quasi[j], which forms no adjoint; it adds each output entry's terms
    over ascending row of quasi[j], as quasi[j].adjoint() @ psi would, so
    both give the same vector bit for bit.  Terms with c = 0 are skipped;
    the rest accumulate in the order given.
    """
    up = [quasi[mt.orb_up(i)] for i in range(mt.n_modes)]
    dn_neg = [quasi[mt.orb_dn(mt.pair[i])] for i in range(mt.n_modes)]
    out = np.zeros_like(psi)
    for p, pp, c in terms:
        if c == 0.0:
            continue
        # w @ gamma is gamma^T w, which is gamma* w for a real gamma
        w = psi @ dn_neg[pp]
        w = w @ up[pp]
        w = w @ dn_neg[p]
        w = w @ up[p]
        out += c * w
    return out


@dataclass(frozen=True, eq=False)
class CorrectionState:
    """Four-quasiparticle correction Phi with its overlap (Phi, Phi)."""

    phi: np.ndarray
    overlap: float


def pair_coefficients(mt: ModeTable, kernel: Kernel, gap: GapTable) -> np.ndarray:
    """c[p, p'] = U_{p,p'} (C_p^2 S_p'^2 + C_p'^2 S_p^2) / (E_p + E_p')."""
    gap.validate(mt)
    c2 = gap.cos_t**2
    s2 = gap.sin_t**2
    num = kernel.u * (np.outer(c2, s2) + np.outer(s2, c2))
    denom = np.maximum(gap.energy[:, None] + gap.energy[None, :], EPS_GUARD)
    return num / denom


def correction_state(
    mt: ModeTable,
    kernel: Kernel,
    gap: GapTable,
    quasi: list,
    psi_ref: np.ndarray,
) -> CorrectionState:
    """Phi = 1/2 sum_{p,p'} c_{p,p'} gamma*_{p,up} gamma*_{-p,dn} gamma*_{p',up} gamma*_{-p',dn} Psi_ref.

    The double sum collapses to unordered pairs: the p=p' strings vanish by
    nilpotency and the two orderings contribute equally (even permutation).
    `quasi` is the gamma list that `quartet_sum` reads.
    """
    coeffs = pair_coefficients(mt, kernel, gap)
    m = mt.n_modes
    pairs = ((p, pp, coeffs[p, pp]) for p in range(m) for pp in range(p + 1, m))
    phi = quartet_sum(mt, quasi, pairs, psi_ref)
    return CorrectionState(phi=phi, overlap=float(np.vdot(phi, phi)))


def normalized_psi(psi_ref: np.ndarray, correction: CorrectionState) -> np.ndarray:
    """(Psi_ref + Phi) / sqrt(1 + (Phi,Phi)); requires (Psi_ref, Phi) = 0."""
    ortho = abs(np.vdot(psi_ref, correction.phi))
    if ortho > 1e-10:
        raise ValidationError(
            f"correction is not orthogonal to the reference state: |(ref, Phi)| = {ortho:.3e}"
        )
    return (psi_ref + correction.phi) / np.sqrt(1.0 + correction.overlap)
