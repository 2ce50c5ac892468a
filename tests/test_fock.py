import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pffiber.fock import (
    BasisTooLargeError,
    dgamma_diag,
    enumerate_basis,
    field_sum,
    hermiticity_defect,
    hermitize,
    require_hermitian,
    truncated_dim,
)
from pffiber.hamiltonian import build_model

from oracles import annihilator


def _index(basis):
    """State -> basis position, built here as an oracle independent of fock."""
    return {tuple(s): i for i, s in enumerate(basis.states)}


def _recursive_sector(n_modes, total):
    """Occupation vectors with sum = total in ascending lexicographic order,
    by recursion over the first mode: the oracle of the enumeration."""
    if n_modes == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _recursive_sector(n_modes - 1, total - first):
            yield (first,) + rest


@pytest.mark.parametrize(
    "n_modes, n_max",
    [(1, 0), (1, 4), (5, 0), (3, 3), (4, 2), (24, 1), (24, 2), (12, 3), (48, 2)],
)
def test_enumeration_matches_the_recursive_oracle(n_modes, n_max):
    want = np.array(
        [s for total in range(n_max + 1) for s in _recursive_sector(n_modes, total)],
        dtype=np.int64,
    )
    got = enumerate_basis(n_modes, n_max).states
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def test_single_mode_enumeration():
    basis = enumerate_basis(1, 2)
    assert [tuple(s) for s in basis.states] == [(0,), (1,), (2,)]


def test_two_mode_enumeration():
    basis = enumerate_basis(2, 1)
    assert basis.dim == 3
    assert {tuple(s) for s in basis.states} == {(0, 0), (1, 0), (0, 1)}
    assert tuple(basis.states[0]) == (0, 0)  # vacuum first


def test_stars_and_bars_count():
    # independent count: sum_{n<=2} C(n+2, n) = 1 + 3 + 6
    expected = sum(math.comb(n + 2, n) for n in range(3))
    basis = enumerate_basis(3, 2)
    assert basis.dim == expected == 10
    assert truncated_dim(3, 2) == expected


def test_graded_ordering_and_index():
    basis = enumerate_basis(3, 3)
    totals = basis.totals()
    assert np.all(np.diff(totals) >= 0)
    index = _index(basis)
    for i, s in enumerate(basis.states):
        assert index[tuple(s)] == i


def test_dimension_guard():
    with pytest.raises(BasisTooLargeError):
        enumerate_basis(48, 6, max_dim=10_000)


def test_ladder_amplitude():
    basis = enumerate_basis(1, 2)
    a = annihilator(basis, 0)
    index = _index(basis)
    assert a[index[(1,)], index[(2,)]] == pytest.approx(math.sqrt(2))
    # vacuum is annihilated
    assert np.all(a[:, index[(0,)]] == 0.0)


def test_ccr_on_safe_block_only():
    basis = enumerate_basis(2, 2)
    a0 = annihilator(basis, 0)
    comm = a0 @ a0.T - a0.T @ a0
    safe = basis.totals() <= basis.n_max - 1
    assert_allclose(comm[np.ix_(safe, safe)], np.eye(safe.sum()), atol=1e-14)
    # at the truncation edge the compressed commutator deviates
    top = ~safe
    assert np.max(np.abs(comm[np.ix_(top, top)] - np.eye(top.sum()))) > 0.5


def test_dgamma_number_operator():
    basis = enumerate_basis(2, 3)
    n_op = dgamma_diag(basis, np.ones(2))
    index = _index(basis)
    assert n_op[index[(2, 1)]] == pytest.approx(3.0)
    assert n_op[0] == 0.0  # vacuum


def test_field_energy_dominates_number(small_model):
    basis, table = small_model.basis, small_model.table
    hf = dgamma_diag(basis, table.omega)
    nf = basis.totals()
    assert np.all(hf >= small_model.params.m_ph * nf - 1e-14)
    assert hf[0] == 0.0


def test_dgamma_outputs_commute(small_model, rng):
    basis = small_model.basis
    c1 = rng.standard_normal(basis.n_modes)
    c2 = rng.standard_normal(basis.n_modes)
    d1, d2 = np.diag(dgamma_diag(basis, c1)), np.diag(dgamma_diag(basis, c2))
    assert_allclose(d1 @ d2, d2 @ d1)


def test_field_sum_single_mode():
    basis = enumerate_basis(1, 1)
    x = field_sum(basis, np.array([1.0]))
    assert_allclose(x, [[0.0, 1.0], [1.0, 0.0]])
    assert_allclose(field_sum(basis, np.array([0.0])), np.zeros((2, 2)))


def test_field_sum_hermitian_and_real(small_model, rng):
    basis = small_model.basis
    c = rng.standard_normal(basis.n_modes)
    x = field_sum(basis, c)
    assert np.isrealobj(x)
    assert hermiticity_defect(x) == 0.0
    z = field_sum(basis, c + 1j * rng.standard_normal(basis.n_modes))
    assert hermiticity_defect(z) < 1e-14


def test_field_sum_quadratic_form_bound(small_model, rng):
    # a(c) + a(c)* <= H_f + ||omega^{-1/2} c||^2 as matrices
    basis, table = small_model.basis, small_model.table
    for _ in range(5):
        c = rng.standard_normal(basis.n_modes)
        x = field_sum(basis, c)
        bound = np.diag(dgamma_diag(basis, table.omega)) + np.sum(
            c * c / table.omega
        ) * np.eye(basis.dim)
        assert np.linalg.eigvalsh(bound - x)[0] >= -1e-10


def test_hermiticity_helpers(rng):
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    require_hermitian(hermitize(m))
    with pytest.raises(ValueError):
        require_hermitian(m + np.diag([10.0, 0, 0, 0]) @ np.ones((4, 4)))


def test_hermiticity_helpers_on_a_stack_equal_the_per_matrix_calls(rng):
    stack = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
    sym = hermitize(stack)
    defects = hermiticity_defect(stack)
    assert defects.shape == (5,)
    for k, m in enumerate(stack):
        assert np.array_equal(sym[k], hermitize(m))
        assert defects[k] == hermiticity_defect(m)
    assert np.array_equal(hermiticity_defect(sym), np.zeros(5))
    require_hermitian(sym)
    assert hermiticity_defect(np.zeros((3, 0, 0))).shape == (3,)


def test_require_hermitian_holds_each_matrix_of_a_stack_to_its_own_scale(rng):
    g = rng.standard_normal((4, 4))
    small = g + g.T
    skewed = small.copy()
    skewed[0, 1] += 1e-9 * np.max(np.abs(small))
    large = 1e6 * (small + 10 * np.eye(4))
    require_hermitian(np.stack([small, large]))
    # the skew is 1e-9 of its own matrix, but 1e-16 of the stack's max|M|
    assert hermiticity_defect(skewed) <= 1e-12 * np.max(np.abs(large))
    for stack in (np.stack([skewed, large]), np.stack([large, skewed])):
        with pytest.raises(ValueError):
            require_hermitian(stack)


# ----------------------------------------------------------------------
# the ladder table against the per-mode, per-state construction
# ----------------------------------------------------------------------

LADDER_BASES = [(1, 4), (5, 0), (3, 3), (4, 2)]


def _naive_annihilator(basis, m):
    """a_m built state by state through a tuple lookup."""
    index = _index(basis)
    a = np.zeros((basis.dim, basis.dim))
    for j, occ in enumerate(basis.states):
        if occ[m] == 0:
            continue
        target = list(occ)
        target[m] -= 1
        a[index[tuple(target)], j] = math.sqrt(occ[m])
    return a


def _naive_field_sum(basis, coeffs):
    """sum_m conj(c_m) a_m + c_m a_m^dagger, one dense a_m at a time."""
    coeffs = np.asarray(coeffs)
    real = np.isrealobj(coeffs) or np.allclose(coeffs.imag, 0.0)
    out = np.zeros((basis.dim, basis.dim), dtype=float if real else complex)
    if real:
        coeffs = coeffs.real
    for m in range(basis.n_modes):
        c = coeffs[m]
        if c == 0:
            continue
        a = _naive_annihilator(basis, m)
        out += np.conj(c) * a + c * a.T
    return out


def _assert_bitwise(x, y):
    assert x.dtype == y.dtype
    assert np.array_equal(x, y)
    assert x.tobytes() == y.tobytes()  # signed zeros included


def _coefficients(kind, n, rng):
    c = rng.standard_normal(n)
    if kind == "complex":
        return c + 1j * rng.standard_normal(n)
    if kind == "imaginary":
        return -1.0j * c
    if kind == "partly zero":
        c[::2] = 0.0
        c[1::4] = -0.0
        return c
    return c


@pytest.mark.parametrize("n_modes,n_max", LADDER_BASES)
@pytest.mark.parametrize("kind", ["real", "complex", "imaginary", "partly zero"])
def test_field_sum_matches_modewise_reference(n_modes, n_max, kind, rng):
    basis = enumerate_basis(n_modes, n_max)
    c = _coefficients(kind, n_modes, rng)
    _assert_bitwise(field_sum(basis, c), _naive_field_sum(basis, c))


@pytest.mark.parametrize("n_dirs", [6, 12])
def test_model_field_operators_match_reference(default_params, n_dirs):
    model = build_model(default_params.replace(n_dirs=n_dirs))
    basis, table = model.basis, model.table
    curl = np.cross(table.k, table.f)
    for j in range(3):
        _assert_bitwise(model.A[j], _naive_field_sum(basis, table.f[:, j]))
        _assert_bitwise(model.B[j], _naive_field_sum(basis, -1.0j * curl[:, j]))


@pytest.mark.parametrize("n_modes,n_max", LADDER_BASES)
def test_ladder_rows_match_tuple_dict(n_modes, n_max):
    basis = enumerate_basis(n_modes, n_max)
    index = _index(basis)
    rows, cols, modes, amps = basis.ladder
    states = basis.states
    # one entry per occupied (state, mode) pair
    assert sorted(zip(cols.tolist(), modes.tolist())) == sorted(
        zip(*np.nonzero(states))
    )
    for i, j, m, amp in zip(rows, cols, modes, amps):
        lowered = list(states[j])
        lowered[m] -= 1
        assert index[tuple(lowered)] == i
        assert amp == math.sqrt(states[j][m])


@pytest.mark.parametrize("n_modes,n_max", LADDER_BASES)
def test_annihilator_matches_reference(n_modes, n_max):
    basis = enumerate_basis(n_modes, n_max)
    for m in range(n_modes):
        _assert_bitwise(annihilator(basis, m), _naive_annihilator(basis, m))
