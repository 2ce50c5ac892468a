import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pffiber import bounds, hamiltonian, spectral
from pffiber.fock import enumerate_basis, hermiticity_defect, hermitize
from pffiber.hamiltonian import (
    ALPHA,
    BETA,
    NotPositiveSemidefiniteError,
    QuadratureNotConverged,
    block_generator,
    build_A0,
    build_B0,
    build_D,
    build_H,
    build_H_SL,
    build_T,
    build_T_expanded,
    build_model,
    build_v,
    h0_diag,
    hf_spinor,
    interaction_norm,
    kinetic_root,
    lipschitz_ratio,
    op_sqrt_eig,
    op_sqrt_quad,
    spin_curl_mismatch,
)
from pffiber.modes import FormFactorTable, ModelParams

from oracles import build_H0


def free_levels(P, model):
    """Independent enumeration oracle for the e = 0 spectrum (Fock factor)."""
    p = model.params
    out = []
    for occ in model.basis.states:
        pf = occ @ model.table.k
        hf = occ @ model.table.omega
        out.append(p.gamma * math.sqrt((P - pf) @ (P - pf) + p.M**2) + hf)
    return np.array(out)


def test_A0_zero_coupling(default_params):
    model = build_model(default_params.replace(e=0.0))
    for a in model.A:
        assert np.all(a == 0.0)


def test_A0_real_and_form_bounded(default_model):
    # +-A_j <= ||omega^{-1/2} f_j|| (H_f + 1) by the coupling estimate
    model = default_model
    hf1 = np.diag(model.hf + 1.0)
    for j in range(3):
        assert np.isrealobj(model.A[j])
        c = model.norms.n_half_comp[j]
        for sign in (1.0, -1.0):
            assert np.linalg.eigvalsh(c * hf1 - sign * model.A[j])[0] >= -1e-10


def test_B0_zero_coupling(default_params):
    model = build_model(default_params.replace(e=0.0))
    for b in model.B:
        assert np.all(b == 0.0)


def test_B0_purely_imaginary(default_model):
    for b in default_model.B:
        assert np.max(np.abs(np.conj(b) + b)) < 1e-15
        assert hermiticity_defect(b) < 1e-15


def test_B0_single_mode_hand_value():
    # one mode at k = (0, 0, kappa) with eps = (1, 0, 0):
    # <vac| B_2 |one photon> = i kappa g
    kappa, g = 0.7, 0.31
    basis = enumerate_basis(1, 1)
    table = FormFactorTable(
        f=np.array([[g, 0.0, 0.0]]),
        g=np.array([g]),
        omega=np.array([1.0]),
        k=np.array([[0.0, 0.0, kappa]]),
    )
    b = build_B0(basis, table)
    assert b[1][0, 1] == pytest.approx(1j * kappa * g)
    assert b[0][0, 1] == 0.0 and b[2][0, 1] == 0.0


def test_v_free_diagonal(default_params):
    model = build_model(default_params.replace(e=0.0))
    P = np.array([0.4, -0.2, 0.1])
    v = build_v(P, model)
    for j in range(3):
        expected = np.diag(P[j] - model.pf[:, j])
        assert_allclose(v[j], expected)


def test_v_vacuum_expectation(default_model):
    P = np.array([0.3, 0.5, -0.7])
    v = build_v(P, default_model)
    for j in range(3):
        assert v[j][0, 0] == pytest.approx(P[j])


def test_v_commutators_close_on_field_curl(default_model):
    # i (v ^ v) = B below the truncation edge; top sector carries the
    # documented O(coupling^2) compression remainder
    P = np.array([0.2, 0.1, -0.3])
    sub, full = spin_curl_mismatch(P, default_model)
    assert sub <= 1e-14
    assert full > 1e-8  # the edge is real, not rounding


def test_T_free_diagonal(default_params):
    model = build_model(default_params.replace(e=0.0))
    P = np.array([0.6, 0.0, 0.0])
    t = build_T(P, model)
    rel = P[None, :] - model.pf
    expected = np.kron(np.eye(2), np.diag(np.sum(rel * rel, axis=1)))
    assert_allclose(t, expected, atol=1e-14)


def test_T_direct_vs_expanded(default_params, rng):
    for _ in range(5):
        e = rng.uniform(0.0, 0.3)
        P = rng.uniform(-1.0, 1.0, 3)
        model = build_model(default_params.replace(e=float(e)))
        td = build_T(P, model)
        te = build_T_expanded(P, model)
        rel = np.linalg.norm(td - te) / np.linalg.norm(td)
        assert rel <= 1e-12
        assert hermiticity_defect(td) <= 1e-12 * np.max(np.abs(td))
        assert np.linalg.eigvalsh(td)[0] >= -1e-10 * np.linalg.norm(td, 2)


def test_dirac_rest_spectrum():
    # vacuum-only truncation at e = 0, P = 0: free Dirac at rest, levels +-M
    p = ModelParams(e=0.0, gamma=0.5, M=1.3, m_ph=0.5, Lambda=1.0,
                    n_shells=1, n_dirs=2, N_max=0)
    d = build_D(np.zeros(3), build_model(p))
    assert_allclose(np.linalg.eigvalsh(d), [-1.3, -1.3, 1.3, 1.3])


def test_dirac_square_identity(default_params, rng):
    for _ in range(5):
        e = rng.uniform(0.0, 0.3)
        P = rng.uniform(-1.0, 1.0, 3)
        model = build_model(default_params.replace(e=float(e)))
        d = build_D(P, model)
        t = build_T(P, model)
        block = np.kron(np.eye(2), t + model.params.M**2 * np.eye(t.shape[0]))
        d2 = d @ d
        assert np.linalg.norm(d2 - block) <= 1e-10 * np.linalg.norm(d2)


def test_massless_dirac_anticommutes_with_beta(default_model):
    P = np.array([0.5, -0.1, 0.2])
    model = default_model
    d = build_D(P, model)
    beta_full = np.kron(BETA, np.eye(model.dim))
    d0 = d - model.params.M * beta_full  # strip the mass term
    anti = d0 @ beta_full + beta_full @ d0
    assert np.max(np.abs(anti)) < 1e-12


def test_clifford_matrices():
    for j in range(3):
        for l in range(3):
            anti = ALPHA[j] @ ALPHA[l] + ALPHA[l] @ ALPHA[j]
            assert_allclose(anti, 2.0 * (j == l) * np.eye(4), atol=1e-15)
        assert_allclose(ALPHA[j] @ BETA + BETA @ ALPHA[j], np.zeros((4, 4)))
    assert_allclose(BETA @ BETA, np.eye(4))


def test_sqrt_eig_basics():
    assert_allclose(op_sqrt_eig(np.eye(3)), np.eye(3))
    assert_allclose(op_sqrt_eig(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_sqrt_eig_squares_back(rng):
    g = rng.standard_normal((8, 8))
    h = g @ g.T
    root = op_sqrt_eig(h)
    assert np.linalg.norm(root @ root - h) <= 1e-10 * np.linalg.norm(h)


def test_sqrt_eig_clamps_and_rejects():
    tiny = np.diag([1.0, -1e-14])
    root = op_sqrt_eig(tiny)
    assert root[1, 1] == 0.0
    with pytest.raises(NotPositiveSemidefiniteError):
        op_sqrt_eig(np.diag([1.0, -1e-3]))


def test_sqrt_eig_on_a_stack_equals_the_per_matrix_roots(rng):
    g = rng.standard_normal((7, 9, 9)) + 1j * rng.standard_normal((7, 9, 9))
    h = g.conj().swapaxes(-1, -2) @ g
    h[3] = np.diag([2.0, 1.0, 0.5, 0.0, 0.0, 3.0, 1.0, 1.0, -1e-14])  # clamped
    roots = op_sqrt_eig(h)
    assert roots.shape == h.shape
    for k in range(h.shape[0]):
        assert np.array_equal(roots[k], op_sqrt_eig(h[k]))


def test_sqrt_eig_guards_each_matrix_of_a_stack():
    """-1e-6 is far below the clamp of its own matrix (scale 1) but only
    1e-12 of the stack's largest eigenvalue: a stack-wide scale would clamp
    it."""
    bad = np.diag([1.0, -1e-6])
    large = np.diag([1e6, 1.0])
    op_sqrt_eig(np.stack([np.diag([1.0, -1e-14]), large]))
    for stack in (np.stack([bad, large]), np.stack([large, bad])):
        with pytest.raises(NotPositiveSemidefiniteError, match="of the stack"):
            op_sqrt_eig(stack)
    skewed = np.array([[1.0, 1e-9], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        op_sqrt_eig(np.stack([skewed, 1e6 * np.eye(2)]))


def test_sqrt_quad_scalar_and_diagonal():
    assert op_sqrt_quad(np.array([[16.0]]), scale=16.0)[0, 0] == pytest.approx(4.0, abs=1e-10)
    assert_allclose(
        op_sqrt_quad(np.diag([1.0, 25.0]), scale=1.0), np.diag([1.0, 5.0]),
        atol=1e-8,
    )


def test_sqrt_quad_cross_algorithm(rng):
    for _ in range(5):
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = g @ g.conj().T + 0.5 * np.eye(8)
        diff = op_sqrt_quad(h, tol=1e-9) - op_sqrt_eig(h)
        assert np.max(np.abs(diff)) <= 1e-9


def test_sqrt_quad_reports_stall():
    # huge condition number with a node budget too small to resolve it
    h = np.diag([1e-12, 1.0])
    with pytest.raises(QuadratureNotConverged):
        op_sqrt_quad(h, tol=1e-12, scale=1.0, max_nodes=32)


def test_sqrt_quad_evaluates_no_count_above_max_nodes(monkeypatch):
    """A stalled quadrature stops at its budget: the node counts double up
    to ``max_nodes`` and no further before it raises."""
    counts = []
    real = hamiltonian._sqrt_quad_nodes

    def counted(h, scale, n):
        counts.append(n)
        return real(h, scale, n)

    monkeypatch.setattr(hamiltonian, "_sqrt_quad_nodes", counted)
    with pytest.raises(QuadratureNotConverged, match="with 64 nodes"):
        op_sqrt_quad(np.diag([1e-12, 1.0]), tol=1e-12, scale=1.0, max_nodes=64)
    assert counts == [16, 32, 64]


def test_H_ground_at_rest(default_params):
    p = default_params.replace(e=0.0)
    model = build_model(p)
    h = build_H(np.zeros(3), model)
    vals = np.linalg.eigvalsh(h)
    assert vals[0] == pytest.approx(p.gamma * p.M, abs=1e-12)
    assert vals[1] == pytest.approx(p.gamma * p.M, abs=1e-12)
    assert vals[2] > vals[1] + 1e-6
    # H >= gamma M when e = 0
    assert vals[0] >= p.gamma * p.M - 1e-9


def test_H_free_spectrum_oracle(default_params):
    model = build_model(default_params.replace(e=0.0))
    for px in (0.0, 0.7, 1.9):
        P = np.array([px, 0.0, 0.0])
        vals = np.linalg.eigvalsh(build_H(P, model))
        closed = np.sort(np.concatenate([free_levels(P, model)] * 2))
        assert np.max(np.abs(vals - closed)) <= 1e-10


def test_H_hermitian(default_model):
    h = build_H(np.array([0.5, 0.2, -0.1]), default_model)
    assert hermiticity_defect(h) <= 1e-12 * np.max(np.abs(h))


def test_H_SL_free_matches_fock_levels(default_params):
    model = build_model(default_params.replace(e=0.0))
    P = np.array([1.1, 0.0, 0.0])
    vals = np.linalg.eigvalsh(build_H_SL(P, model))
    assert_allclose(vals, np.sort(free_levels(P, model)), atol=1e-11)


def test_spin_difference_bound(default_model):
    # +-(H_SL - H) <= (3 pi / M) n_curl (H_f + 1) as matrices
    model = default_model
    p, n = model.params, model.norms
    for px in (0.0, 1.0, 2.0):
        P = np.array([px, 0.0, 0.0])
        h = build_H(P, model)
        hsl = np.kron(np.eye(2), build_H_SL(P, model))
        envelope = (3 * math.pi / p.M) * n.n_curl * (
            hf_spinor(model) + np.eye(2 * model.dim)
        )
        for sign in (1.0, -1.0):
            margin = np.linalg.eigvalsh(envelope - sign * (hsl - h))[0]
            assert margin >= -1e-9 * np.linalg.norm(h, 2)


def test_spinless_lower_bound(default_model):
    # H_SL(|P|u) >= gamma sqrt(P^2+M^2) + (1-gamma-eC) H_f - eC
    model = default_model
    p, n = model.params, model.norms
    ec = p.gamma * n.n_half_comp[0]
    for px in (0.0, 1.0, 2.0):
        P = np.array([px, 0.0, 0.0])
        hsl = build_H_SL(P, model)
        free = p.gamma * math.sqrt(px**2 + p.M**2)
        lower = free + (1 - p.gamma - ec) * model.hf - ec
        margin = np.linalg.eigvalsh(hsl - np.diag(lower))[0]
        assert margin >= -1e-9 * np.linalg.norm(hsl, 2)


def test_H0_diagonal_values(default_model):
    model = default_model
    p = model.params
    P = np.array([0.8, 0.0, 0.0])
    h0 = build_H0(P, model)
    assert h0[0, 0] == pytest.approx(p.gamma * math.sqrt(0.64 + p.M**2))
    # one-photon entries: gamma sqrt((P-k_m)^2+M^2) + omega_m
    index = {tuple(s): i for i, s in enumerate(model.basis.states)}
    for m in range(model.basis.n_modes):
        idx = index[
            tuple(1 if j == m else 0 for j in range(model.basis.n_modes))
        ]
        k = model.table.k[m]
        expected = (
            p.gamma * math.sqrt((P - k) @ (P - k) + p.M**2)
            + model.table.omega[m]
        )
        assert h0[idx, idx] == pytest.approx(expected)


def test_H0_equals_H_at_zero_coupling(default_params):
    model = build_model(default_params.replace(e=0.0))
    P = np.array([0.4, 0.3, 0.0])
    assert_allclose(build_H0(P, model), build_H(P, model), atol=1e-11)


def test_interaction_norm_zero_coupling(default_params):
    assert interaction_norm(
        np.array([1.0, 0, 0]), default_params.replace(e=0.0)
    ) == 0.0


def test_interaction_norm_linear_trend(default_params):
    P = np.array([1.0, 0.0, 0.0])
    n1 = interaction_norm(P, default_params.replace(e=0.05))
    n2 = interaction_norm(P, default_params.replace(e=0.1))
    assert 1.8 * n1 <= n2 <= 2.2 * n1
    assert interaction_norm(P, default_params.replace(e=0.3)) < 1.0


def test_lipschitz_ratio_bounded(default_model):
    ratios = [
        lipschitz_ratio(np.array([px, 0.0, 0.0]), kmag * np.array([0.6, 0.0, 0.8]),
                        default_model)
        for px in (0.0, 1.5)
        for kmag in (1e-3, 0.1, 1.0)
    ]
    assert max(ratios) < 50.0
    assert max(ratios) < 20.0 * min(ratios)  # no 1/|k| blow-up as k -> 0


def test_h0_diag_matches_matrix(default_model):
    P = np.array([0.2, -0.4, 0.6])
    assert_allclose(
        np.kron(np.ones(2), h0_diag(P, default_model)),
        np.diag(build_H0(P, default_model)),
    )


@pytest.mark.parametrize("M", [1.0, 0.3])
@pytest.mark.parametrize("n", [6, 12])
def test_kinetic_root_matches_both_square_roots(rng, M, n):
    # indefinite s with an exact zero eigenvalue: f(0) = M is the floor
    lam = np.concatenate([[0.0], rng.uniform(-2.0, 2.0, n - 1)])
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    s = hermitize((q * lam) @ q.conj().T)
    root = kinetic_root(s, M)
    t = s @ s + M * M * np.eye(n)
    scale = np.linalg.norm(root, 2)
    assert np.max(np.abs(root - op_sqrt_eig(t))) <= 1e-12 * scale
    assert np.max(np.abs(root - op_sqrt_quad(t, tol=1e-13, scale=M * M))) <= (
        1e-12 * scale
    )


@pytest.mark.parametrize("n_dirs", [2, 6, 8, 12])
@pytest.mark.parametrize("n_max", [1, 2])
def test_H_matches_the_T_form_oracle(default_params, n_dirs, n_max):
    model = build_model(default_params.replace(n_shells=1, n_dirs=n_dirs, N_max=n_max))
    p = model.params
    P = np.array([0.31, -0.47, 0.62])
    h = build_H(P, model)
    t = build_T(P, model)
    oracle = p.gamma * op_sqrt_eig(t + p.M**2 * np.eye(t.shape[0])) + hf_spinor(model)
    assert np.max(np.abs(h - oracle)) <= 1e-12 * np.linalg.norm(h, 2)


def test_no_H_builder_forms_T_or_the_psd_root(default_model, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("H(P) is built from kinetic_root(sigma_dot_v)")

    for fn in ("build_T", "op_sqrt_eig"):
        real = getattr(hamiltonian, fn)
        for name, mod in list(sys.modules.items()):
            if name.startswith("pffiber") and getattr(mod, fn, None) is real:
                monkeypatch.setattr(mod, fn, refuse)
    model = default_model
    generic = np.array([0.31, -0.47, 0.62])
    c4 = np.array([0.7, 0.0, 0.0])
    mirror = np.array([0.7, -0.8, 0.0])
    assert block_generator(generic, model) is None
    assert np.linalg.det(block_generator(c4, model)[0]) > 0
    assert np.linalg.det(block_generator(mirror, model)[0]) < 0
    for P in (generic, c4, mirror):
        spectral.solve_fiber(P, model)
        assert bounds.sandwich_margins(P, model) is not None
        spectral.ground_data(P, model)
    assert spectral.delta_gap(c4, model) <= model.params.m_ph + 1e-12
    lipschitz_ratio(c4, 0.1 * np.array([0.6, 0.0, 0.8]), model)
    bounds.taylor_remainder_min_eig(c4, model)
