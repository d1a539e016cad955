"""bcslab: exact Fock-space laboratory for BCS pairing at desk scale.

Builds the full 2^(2M)-dimensional fermionic Fock space for a small
momentum lattice, solves the pairing gap equation (classic and corrected
variants), constructs the paired product state, its Bogoliubov
quasiparticles and the four-quasiparticle corrected state, and verifies
every closed-form energy/spectrum/symmetry identity against brute-force
matrix computation.
"""

from .errors import ConvergenceError, ResourceLimitError, ValidationError
from .fock import anticommutator_check, expectation, ladder_matrix, vacuum_state
from .gapsolve import (
    GapSolution,
    GapTable,
    dk_weights,
    gap_residual,
    new_gap_residual,
    solve_gap,
    solve_new_gap,
)
from .hamiltonian import OperatorBundle, build_GB, build_HM, build_Hprime
from .model import (
    Kernel,
    ModeTable,
    build_lambda,
    explicit_modes,
    separable_kernel,
    validate_kernel,
)
from .states import (
    CorrectionState,
    bcs_state,
    correction_state,
    fermi_vacuum,
    normalized_psi,
    pair_table,
    quasi_ops,
)
from .sectors import PairSectors
from .analysis import (
    VerificationReport,
    condensation_energy,
    delta_E_formula,
    ebcs_formula,
    hm_spectrum_check,
    run_verification,
)

__version__ = "0.1.0"
