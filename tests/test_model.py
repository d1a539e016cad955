import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcslab.errors import ResourceLimitError, ValidationError
from bcslab.model import (
    Kernel,
    ModeTable,
    build_lambda,
    explicit_modes,
    permuted_instance,
    separable_kernel,
    validate_kernel,
)

TWO_PI = 2.0 * math.pi


def brute_ball_count(kmax_sq: float) -> int:
    """Independent enumeration of integer triples with |n|^2 <= kmax_sq."""
    nmax = int(math.isqrt(int(kmax_sq)) + 1)
    count = 0
    for n1 in range(-nmax, nmax + 1):
        for n2 in range(-nmax, nmax + 1):
            for n3 in range(-nmax, nmax + 1):
                if n1 * n1 + n2 * n2 + n3 * n3 <= kmax_sq:
                    count += 1
    return count


def test_ball_origin_only():
    mt = build_lambda(TWO_PI, 0.5)
    assert mt.n_modes == 1
    assert mt.nvecs == ((0, 0, 0),)
    assert mt.pair[0] == 0


def test_ball_unit_shell():
    mt = build_lambda(TWO_PI, 1.0)
    assert mt.n_modes == 7 == brute_ball_count(1.0)


def test_ball_second_shell(monkeypatch):
    monkeypatch.setenv("BCSLAB_DIM_CAP", "19")
    mt = build_lambda(TWO_PI, 1.5)
    assert mt.n_modes == 19 == brute_ball_count(2.25)


def test_ball_is_set_of_triples_not_order_dependent():
    mt = build_lambda(TWO_PI, 1.0)
    expected = {(0, 0, 0)} | {
        tuple(s * v for v in e)
        for e in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        for s in (1, -1)
    }
    assert set(mt.nvecs) == expected


def test_ball_exceeding_cap_reports_m(monkeypatch):
    monkeypatch.setenv("BCSLAB_DIM_CAP", "7")
    with pytest.raises(ResourceLimitError, match="M=19"):
        build_lambda(TWO_PI, 1.5)


@pytest.mark.parametrize(
    "L, kmax, cap, stated",
    [
        (TWO_PI, 2.0, "26", "M>=27 modes"),  # brute_ball_count(4.0) is 33
        (1e6, 1.0, "7", "M>=6.20668e+15 modes"),  # ~3e16 triples to enumerate; the bound prints as %.6g
        (1e200, 1e200, "7", "overflow the mode count"),
    ],
)
def test_ball_beyond_cap_rejected_before_enumeration(monkeypatch, L, kmax, cap, stated):
    monkeypatch.setenv("BCSLAB_DIM_CAP", cap)
    with pytest.raises(ResourceLimitError, match=re.escape(f"{stated}, beyond the cap M<={cap}")):
        build_lambda(L, kmax)


def test_xi_formula_and_parity():
    mt = build_lambda(TWO_PI, 1.0, mu=0.3)
    for i in range(mt.n_modes):
        assert mt.xi[i] == pytest.approx(mt.knorm(i) ** 2 - 0.3, abs=1e-15)
        assert mt.xi[i] == mt.xi[mt.pair[i]]
        assert mt.pair[mt.pair[i]] == i


def test_pair_involution_with_custom_units():
    mt = build_lambda(4.0, 2.0, mu=1.0, hbar=2.0, mass=1.0)
    # xi = hbar^2 |k|^2 / (2m) - mu = 2 |k|^2 - 1
    for i in range(mt.n_modes):
        assert mt.xi[i] == pytest.approx(2.0 * mt.knorm(i) ** 2 - 1.0, rel=1e-14)


def test_explicit_pair_instance():
    mt = explicit_modes([(1, 0, 0), (-1, 0, 0)], xi_override=[1.6, 1.6])
    assert mt.n_modes == 2
    assert list(mt.pair) == [1, 0]
    assert np.array_equal(mt.xi, [1.6, 1.6])


def test_explicit_self_paired_origin():
    mt = explicit_modes([(0, 0, 0)])
    assert mt.pair[0] == 0


def test_explicit_missing_negation_rejected():
    with pytest.raises(ValidationError, match=r"\(1, 0, 0\)"):
        explicit_modes([(1, 0, 0)])


def test_a_component_past_the_float_range_prints_short_in_a_mode_table_error():
    # the Python API takes any int, and the message prints it to 6 digits, not in all 401
    with pytest.raises(ValidationError, match=r"k=\(1e\+400, 0, 0\)$"):
        ModeTable(nvecs=((10**400, 0, 0),), xi=[0.0], L=1.0)


def test_explicit_duplicate_rejected():
    with pytest.raises(ValidationError):
        explicit_modes([(0, 0, 0), (0, 0, 0)])


def test_explicit_override_must_be_even():
    with pytest.raises(ValidationError, match="xi"):
        explicit_modes([(1, 0, 0), (-1, 0, 0)], xi_override=[1.0, 2.0])
    with pytest.raises(ValidationError):
        explicit_modes([(1, 0, 0), (-1, 0, 0)], xi_override=[1.0])


@pytest.mark.parametrize("L", [0.0, -1.0, math.inf, math.nan])
def test_mode_table_rejects_bad_box_size(L):
    with pytest.raises(ValidationError, match="box size"):
        ModeTable(nvecs=((0, 0, 0),), xi=[0.0], L=L)


def test_kernel_valid_pair_instance(two_mode):
    mt, kernel = two_mode
    assert validate_kernel(kernel, mt) == []


def test_kernel_violations_reported(two_mode):
    mt, _ = two_mode
    assert any(
        "diagonal" in v for v in validate_kernel(Kernel(u=[[-1.0, -4.0], [-4.0, 0.0]]), mt)
    )
    assert any(
        "positive" in v for v in validate_kernel(Kernel(u=[[0.0, 2.0], [2.0, 0.0]]), mt)
    )
    assert any(
        "symmetry" in v for v in validate_kernel(Kernel(u=[[0.0, -1.0], [-2.0, 0.0]]), mt)
    )
    assert any("shape" in v for v in validate_kernel(Kernel(u=np.zeros((3, 3))), mt))


def test_kernel_nonfinite_entries_reported(two_mode):
    mt, _ = two_mode
    for value in (-np.inf, np.nan):
        violations = validate_kernel(Kernel(u=[[0.0, value], [value, 0.0]]), mt)
        assert any("finite" in v for v in violations)


def test_kernel_parity_violation():
    mt = explicit_modes([(0, 0, 0), (1, 0, 0), (-1, 0, 0)])
    u = np.array([[0.0, -1.0, -2.0], [-1.0, 0.0, -3.0], [-2.0, -3.0, 0.0]])
    # U(0, e1) != U(0, -e1) breaks parity while staying symmetric
    assert any("parity" in v for v in validate_kernel(Kernel(u=u), mt))


def test_separable_zero_coupling():
    mt = explicit_modes([(1, 0, 0), (-1, 0, 0)])
    assert np.all(separable_kernel(mt, 0.0).u == 0)


def test_separable_pair_instance():
    mt = explicit_modes([(1, 0, 0), (-1, 0, 0)], xi_override=[1.6, 1.6])
    k = separable_kernel(mt, 4.0)
    assert np.array_equal(k.u, [[0.0, -4.0], [-4.0, 0.0]])


def test_separable_unit_ball():
    mt = build_lambda(TWO_PI, 1.0)
    k = separable_kernel(mt, 1.0, shell=lambda kn: kn <= 1.0)
    assert k.u.shape == (7, 7)
    assert np.all(np.diag(k.u) == 0)
    off = k.u[~np.eye(7, dtype=bool)]
    assert np.all(off == -1.0)


def test_separable_randomized_always_valid():
    rng = np.random.default_rng(11)
    mt = build_lambda(TWO_PI, 1.0)
    for _ in range(20):
        g = rng.uniform(0.0, 10.0)
        lo, hi = np.sort(rng.uniform(0.0, 2.0, size=2))
        k = separable_kernel(mt, g, shell=lambda kn: lo <= kn <= hi)
        assert validate_kernel(k, mt) == []
    with pytest.raises(ValidationError):
        separable_kernel(mt, -1.0)


def test_permuted_instance_consistency(three_mode):
    mt, kernel = three_mode
    perm = [2, 0, 1]
    mt2, kernel2 = permuted_instance(mt, kernel, perm)
    assert set(mt2.nvecs) == set(mt.nvecs)
    for i in range(3):
        assert mt2.pair[mt2.pair[i]] == i
        assert mt2.xi[i] == mt.xi[perm[i]]
    for i in range(3):
        for j in range(3):
            assert kernel2.u[i, j] == kernel.u[perm[i], perm[j]]
    with pytest.raises(ValidationError):
        permuted_instance(mt, kernel, [0, 0, 1])


# one triple of each {n, -n} orbit: the first nonzero coordinate is positive
HALF_SPACE = [n for n in itertools.product(range(-2, 3), repeat=3) if n > (0, 0, 0)]
ENERGIES = st.floats(-1e6, 1e6)


@st.composite
def lattices(draw):
    """A shuffled mode list closed under negation, with finite xi even in k."""
    reps = draw(st.lists(st.sampled_from(HALF_SPACE), min_size=1, max_size=3, unique=True))
    modes = []
    for n in reps:
        e = draw(ENERGIES)
        modes += [(n, e), (tuple(-c for c in n), e)]
    if draw(st.booleans()):
        modes.append(((0, 0, 0), draw(ENERGIES)))
    modes = draw(st.permutations(modes))
    return [n for n, _ in modes], [e for _, e in modes]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(lattice=lattices(), data=st.data())
def test_mode_table_enforces_the_lattice_rule(lattice, data):
    nvecs, xi = lattice
    mt = ModeTable(nvecs=tuple(nvecs), xi=xi)
    m = mt.n_modes
    assert np.array_equal(mt.xi, xi)
    for i in range(m):
        assert mt.pair[mt.pair[i]] == i
        assert mt.nvecs[mt.pair[i]] == tuple(-c for c in nvecs[i])

    i = data.draw(st.sampled_from([j for j in range(m) if nvecs[j] != (0, 0, 0)]), label="mode")
    keep = [j for j in range(m) if j != mt.pair[i]]
    uneven = list(xi)
    uneven[i] = float(np.nextafter(xi[i], math.inf))
    nonfinite = list(xi)
    nonfinite[data.draw(st.integers(0, m - 1), label="nonfinite")] = data.draw(
        st.sampled_from([math.inf, -math.inf, math.nan])
    )
    broken = [
        ([nvecs[j] for j in keep], [xi[j] for j in keep]),  # a partner dropped
        (nvecs + [nvecs[i]], xi + [xi[i]]),  # a vector duplicated
        (nvecs, uneven),  # xi(-k) != xi(k) by one ulp
        (nvecs, nonfinite),
    ]
    for bad_nvecs, bad_xi in broken:
        with pytest.raises(ValidationError):
            ModeTable(nvecs=tuple(bad_nvecs), xi=bad_xi)
