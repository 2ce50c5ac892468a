import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pffiber.fock import (
    BasisTooLargeError,
    annihilator,
    dgamma,
    dgamma_diag,
    enumerate_basis,
    field_sum,
    hermiticity_defect,
    hermitize,
    require_hermitian,
    truncated_dim,
)


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
    for i, s in enumerate(basis.states):
        assert basis.index[tuple(s)] == i


def test_dimension_guard():
    with pytest.raises(BasisTooLargeError):
        enumerate_basis(48, 6, max_dim=10_000)


def test_ladder_amplitude():
    basis = enumerate_basis(1, 2)
    a = annihilator(basis, 0)
    assert a[basis.index[(1,)], basis.index[(2,)]] == pytest.approx(math.sqrt(2))
    # vacuum is annihilated
    assert np.all(a[:, basis.index[(0,)]] == 0.0)


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
    n_op = dgamma(basis, np.ones(2))
    assert n_op[basis.index[(2, 1)], basis.index[(2, 1)]] == pytest.approx(3.0)
    assert n_op[0, 0] == 0.0  # vacuum


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
    d1, d2 = dgamma(basis, c1), dgamma(basis, c2)
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
