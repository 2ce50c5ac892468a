import numpy as np
import pytest
from numpy.testing import assert_allclose

from pffiber import kramers
from pffiber.hamiltonian import (
    build_H,
    build_model,
    setup_stacks,
    theta_pair,
    theta_pairing,
)
from pffiber.kramers import (
    build_H_NR,
    check_reality_relations,
    check_theta_commutes,
    check_theta_commutes_position,
    check_theta_commutes_related,
    kramers_certificate,
    position_toy,
    theta_squared_sign,
)
from pffiber.spectral import cluster_degeneracy, low_spectrum

from oracles import _theta, apply_theta, theta_pairing_residuals


def random_state(rng, dim):
    v = rng.standard_normal(2 * dim) + 1j * rng.standard_normal(2 * dim)
    return v / np.linalg.norm(v)


def test_theta_squares_to_minus_one(rng):
    for _ in range(10):
        psi = random_state(rng, 12)
        assert_allclose(apply_theta(apply_theta(psi)), -psi, atol=1e-14)
    # the certificate from theta's phased permutation equals the dense one
    eye = np.eye(10)
    assert theta_squared_sign(5) == np.max(np.abs(_theta(_theta(eye)) + eye)) == 0.0


def test_a_theta_that_squares_to_plus_one_fails_the_sign_check(monkeypatch):
    """With both sigma_2 phases +i, theta^2 = +1: theta(theta(e)) + e = 2 e
    on every basis vector, so the certificate reads 2, not 0."""

    def plus(dim_fock):
        perm, phase = real(dim_fock)
        return perm, np.full(phase.shape, 1.0j)

    real = kramers._sigma2
    monkeypatch.setattr(kramers, "_sigma2", plus)
    assert theta_squared_sign(5) == 2.0


def test_theta_is_isometric(rng):
    psi = random_state(rng, 9)
    assert np.linalg.norm(apply_theta(psi)) == pytest.approx(1.0)


def test_theta_orthogonality(rng):
    # <psi, theta psi> = 0 for every state
    for _ in range(10):
        psi = random_state(rng, 7)
        assert abs(np.vdot(psi, apply_theta(psi))) < 1e-14


def test_theta_rejects_odd_dimension():
    with pytest.raises(ValueError):
        apply_theta(np.ones(5))


def test_reality_relations(default_model):
    res = check_reality_relations(default_model)
    assert max(res.values()) <= 1e-14


def test_theta_commutes_free_and_coupled(default_params, default_model):
    model0 = build_model(default_params.replace(e=0.0))
    assert check_theta_commutes(build_H(np.array([0.7, 0, 0]), model0)) <= 1e-15
    for px in (0.0, 1.0, 2.0):
        h = build_H(np.array([px, 0.3, -0.2]), default_model)
        assert check_theta_commutes(h) <= 1e-12


def test_theta_negative_control(default_model):
    h = build_H(np.array([1.0, 0, 0]), default_model)
    broken = h + np.kron(np.diag([1.0, -1.0]), np.eye(default_model.dim))
    assert check_theta_commutes(broken) > 0.1


def test_eigenpair_theta_partners(default_model):
    h = build_H(np.array([0.6, 0.0, 0.0]), default_model)
    vals, vecs = low_spectrum(h, 6)
    norm = np.linalg.norm(h, 2)
    for res, overlap in theta_pairing_residuals(h, vals, vecs, norm):
        assert res <= 1e-8
        assert overlap <= 1e-8
    clusters = cluster_degeneracy(np.linalg.eigvalsh(h), 1e-8)
    assert all(c[1] % 2 == 0 for c in clusters)


def test_a_wrong_theta_map_raises_the_ground_overlap(default_model):
    """|<v, theta v>| of the ground vector of C3 block 1 at P = (0.5, 0.5,
    0.5), a block that is its own theta-partner: rounding with the set-up's
    theta map, far from 0 with the phase of the vector's largest component
    flipped.  A generic P would not do (W = 1, and the same flip leaves the
    overlap at rounding), nor two distinct blocks (0 by construction)."""
    P = np.array([[0.5, 0.5, 0.5]])
    ((_, setup),) = setup_stacks(P, default_model)
    partner, parts, (perm, phase) = setup[3][1]
    assert len(setup[3]) == 3 and partner == 1
    h, _ = theta_pair(P, default_model, setup, 1)
    x = np.linalg.eigh(h[0])[1][:, 0]
    assert theta_pairing((perm, phase), parts, parts, x) <= 1e-15
    wrong = phase.copy()
    wrong[np.argmax(np.abs(x))] *= -1
    assert theta_pairing((perm, wrong), parts, parts, x) >= 0.05


def test_certificate_free_theory(default_params):
    p = default_params.replace(e=0.0)
    model = build_model(p)
    cert = kramers_certificate(np.zeros(3), model)
    assert cert.conclusion == "exactly two-fold"
    assert cert.ground_multiplicity == 2
    # theta maps the spin-up vacuum to the spin-down vacuum up to phase
    up = np.zeros(2 * model.dim, dtype=complex)
    up[0] = 1.0
    down = np.zeros(2 * model.dim, dtype=complex)
    down[model.dim] = 1.0
    assert abs(abs(np.vdot(down, apply_theta(up))) - 1.0) < 1e-14


def test_certificate_with_coupling(default_model):
    for px in (0.0, 1.0, 2.0):
        cert = kramers_certificate(np.array([px, 0, 0]), default_model)
        assert cert.hypotheses_met
        assert cert.conclusion == "exactly two-fold"
        assert cert.count_below_sigma == 2
        assert cert.pairing_residual <= 1e-8
        assert cert.ground_overlap <= 1e-8


def test_certificate_guards(default_params):
    lum = build_model(default_params.replace(gamma=1.0))
    cert = kramers_certificate(np.zeros(3), lum)
    assert not cert.hypotheses_met
    assert cert.conclusion == "hypotheses not met"
    strong = build_model(default_params)
    cert = kramers_certificate(np.zeros(3), strong, e_star=0.05)
    assert not cert.hypotheses_met  # e exceeds the configured smallness


def test_nonrelativistic_model_commutes(default_model):
    h = build_H_NR(np.array([0.4, 0.1, 0.0]), default_model)
    assert check_theta_commutes(h) <= 1e-12
    assert check_theta_commutes_related(
        "nonrelativistic", default_model, P=np.array([1.0, 0, 0])
    ) <= 1e-12


def test_position_toy_even_potential():
    assert check_theta_commutes_related("position_toy") <= 1e-12
    h, _ = position_toy()
    vals = np.linalg.eigvalsh(h)
    assert all(c[1] % 2 == 0 for c in cluster_degeneracy(vals, 1e-8))


def test_position_toy_odd_potential_flagged():
    h, parity = position_toy(odd_potential=True)
    assert check_theta_commutes_position(h, parity) > 0.1
    with pytest.raises(ValueError):
        check_theta_commutes_related("position_toy", odd_potential=True)


def test_unknown_related_model():
    with pytest.raises(ValueError):
        check_theta_commutes_related("bogus")
