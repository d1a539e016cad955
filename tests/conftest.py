"""Shared fixtures: reference instances and dense-matrix oracles.

The workhorse instance ("two_mode") is the pair lattice {k, -k} with
xi = 1.6 and U(k,-k) = -4.  Its gap equation has the closed-form solution
sqrt(xi^2 + Delta^2) = 2, i.e. Delta = 1.2, which makes sin 2theta = 0.6 /
cos 2theta = 0.8 a 3-4-5 triangle and gives exact decimal expectations.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from bcslab.model import Kernel, explicit_modes


@pytest.fixture
def two_mode():
    mt = explicit_modes([(1, 0, 0), (-1, 0, 0)], xi_override=[1.6, 1.6])
    kernel = Kernel(u=np.array([[0.0, -4.0], [-4.0, 0.0]]))
    return mt, kernel


@pytest.fixture
def three_mode():
    """{0, e1, -e1} with mixed-sign xi and an all-shell separable kernel."""
    from bcslab.model import separable_kernel

    mt = explicit_modes([(0, 0, 0), (1, 0, 0), (-1, 0, 0)], mu=0.5)
    kernel = separable_kernel(mt, 3.0)
    return mt, kernel


def dense_conjugation(a, k, alpha):
    """Oracle: exp(-alpha K) A exp(alpha K) by dense matrix exponentials."""
    kd = k.toarray()
    return expm(-alpha * kd) @ a.toarray() @ expm(alpha * kd)


def dense_evolution(k, v):
    """Oracle: exp(K) v by dense matrix exponential."""
    return expm(k.toarray()) @ v


def random_selfadjoint(dim, rng, scale=1.0):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    from scipy.sparse import csr_array

    return csr_array(scale * 0.5 * (raw + raw.conj().T))


def random_antisymmetric(dim, rng, scale=1.0):
    """Real K with K^T = -K, the real generator of an orthogonal exp(K)."""
    from scipy.sparse import csr_array

    raw = rng.standard_normal((dim, dim))
    return csr_array(scale * 0.5 * (raw - raw.T))


def random_sparse(dim, rng, density=0.2, real=False):
    from scipy.sparse import csr_array, random_array

    mat = random_array((dim, dim), density=density, rng=rng, dtype=np.float64).toarray()
    if not real:
        mat = mat + 1j * random_array((dim, dim), density=density, rng=rng, dtype=np.float64).toarray()
    return csr_array(mat)
