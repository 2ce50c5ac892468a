"""The spectral record of H(P) built from its symmetry blocks, checked
against the dense oracle build_H + eigh, and the theta-pairing of the
blocks that lets ground_data solve one block per pair.  The program's
solves go through numpy.linalg; one test also checks them against
scipy.linalg, an independent LAPACK build and driver."""

import math

import numpy as np
import pytest
import scipy.linalg

from pffiber import bounds, hamiltonian, spectral
from pffiber.hamiltonian import block_generator, build_H, build_model
from pffiber.kramers import _theta, check_theta_commutes
from pffiber.spectral import _ground_triple, ground_data, solve_fiber

from oracles import block_basis, build_H_blocks

DIRECTION_COUNTS = (2, 6, 8, 12)


def _along(direction, size=0.93):
    direction = np.asarray(direction, dtype=float)
    return size * direction / np.linalg.norm(direction)


# one |P| for all but P = 0, so that H(|P| u) of the sandwich is shared
MOMENTA = {
    "zero": np.zeros(3),
    "x": _along([1, 0, 0]),
    "111": _along([1, 1, 1]),
    "110": _along([1, 1, 0]),
    # in the plane z = 0 and on no axis: only the mirror z -> -z fixes it
    "mirror": _along([0.6, -0.8, 0.0]),
    "generic": _along([0.31, -0.47, 0.62]),
}


def _model(default_params, n_dirs, n_max):
    # one radial shell keeps the 12-direction grid at n = 650 for N_max 2
    return build_model(default_params.replace(n_shells=1, n_dirs=n_dirs, N_max=n_max))


def _dense_sandwich(P, model, h_u, norm):
    """(lower, upper, scale) of the sandwich from the dense H(|P| u)."""
    lm = np.kron(np.ones(2), bounds.build_L_minus(P, model))
    lp = np.kron(np.ones(2), bounds.build_L_plus(P, model))
    return (
        np.linalg.eigvalsh(h_u - np.diag(lm))[0],
        np.linalg.eigvalsh(np.diag(lp) - h_u)[0],
        norm,
    )


@pytest.mark.parametrize("n_max", [1, 2])
@pytest.mark.parametrize("n_dirs", DIRECTION_COUNTS)
def test_blocked_record_matches_the_dense_oracle(default_params, n_dirs, n_max):
    model = _model(default_params, n_dirs, n_max)
    consts = bounds.bound_constants(model)
    sandwich = {}
    for name, P in MOMENTA.items():
        solve = solve_fiber(P, model)
        h = build_H(P, model)
        dense = np.linalg.eigvalsh(h)
        norm = max(abs(dense[0]), abs(dense[-1]))
        tol = 1e-12 * norm
        e0, e1, mult = _ground_triple(dense, spectral.DEFAULT_CLUSTER_TOL)
        assert solve.mult == mult, name
        assert abs(solve.E - e0) <= tol and abs(solve.E1 - e1) <= tol, name
        assert np.max(np.abs(solve.eigenvalues - dense)) <= tol, name
        assert abs(solve.h_norm - norm) <= tol, name
        for threshold in (consts.sigma_minus(P), 0.5 * (e0 + e1)):
            assert bounds.count_below(solve.eigenvalues, threshold) == (
                bounds.count_below(dense, threshold)
            ), name
        if name in ("zero", "x"):  # P = |P| u, and x has the |P| of the rest
            sandwich[name] = _dense_sandwich(P, model, h, norm)
        want = sandwich["zero" if name == "zero" else "x"]
        assert np.max(np.abs(np.subtract(solve.sandwich, want))) <= tol, name
        assert solve.residuals["theta_commutation"] <= 1e-12, name
        assert check_theta_commutes(h) <= 1e-12, name
        assert max(solve.ground_pairing) <= 1e-12, name
        assert solve.residuals["eigenpair"] <= 1e-12 * norm, name
        got = ground_data(P, model)
        assert got[2] == mult and abs(got[0] - e0) <= tol and abs(got[1] - e1) <= tol


@pytest.mark.parametrize("n_dirs", DIRECTION_COUNTS)
def test_block_bases_and_theta_partners(default_params, n_dirs):
    """W_j^dagger H W_j is block j, the W_j are orthonormal and mutually
    orthogonal, the (perm, phase) of block j is K = W_j'^dagger theta W_j
    with K conj(H_j) K^dagger = H_j', and H_f is diag(hf[rows]) on block
    j.  The generic momentum is one block with W = 1 that theta maps onto
    itself."""
    model = _model(default_params, n_dirs, 1)
    n = 2 * model.dim
    hf = np.diag(np.kron(np.ones(2), model.hf))
    for name, P in MOMENTA.items():
        blocks = build_H_blocks(P, model)
        h = build_H(P, model)
        tol = 1e-12 * np.linalg.norm(h, 2)
        bases = [block_basis(b, model.dim) for b in blocks]
        if name == "generic":
            assert len(blocks) == 1 and blocks[0].partner == 0
            assert np.array_equal(bases[0], np.eye(n))
        w = np.hstack(bases)
        assert w.shape == (n, n)
        assert np.max(np.abs(w.conj().T @ w - np.eye(n))) <= 1e-13
        for i, (b, wb) in enumerate(zip(blocks, bases)):
            assert blocks[b.partner].partner == i
            assert np.max(np.abs(wb.conj().T @ h @ wb - b.h)) <= tol
            perm, phase = b.theta
            k = np.zeros((len(perm), len(perm)), dtype=complex)
            k[np.arange(len(perm)), perm] = phase
            dense = bases[b.partner].conj().T @ _theta(wb)
            assert np.max(np.abs(k - dense)) <= 1e-14
            image = k @ np.conj(b.h) @ k.conj().T
            assert np.max(np.abs(image - blocks[b.partner].h)) <= tol
            on_block = wb.conj().T @ hf @ wb
            assert np.max(np.abs(on_block - np.diag(model.hf[b.rows]))) <= 1e-13


def _counting(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args[0].shape[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize(
    "P, n_blocks, solved",
    [
        (MOMENTA["x"], 4, 2),  # C4: pairs 0-3 and 1-2
        (MOMENTA["111"], 3, 2),  # C3: pair 0-2, block 1 is its own partner
        (MOMENTA["110"], 2, 1),  # C2: pair 0-1
        (MOMENTA["mirror"], 2, 1),  # mirror: the -i block only
    ],
)
def test_paired_ground_data_solves_one_block_per_pair(
    default_params, monkeypatch, P, n_blocks, solved
):
    model = build_model(default_params)
    blocks = build_H_blocks(P, model)
    assert len(blocks) == n_blocks
    assert solved == math.ceil(n_blocks / 2)
    full = np.sort(np.concatenate([np.linalg.eigvalsh(b.h) for b in blocks]))
    e0, e1, mult = _ground_triple(full, spectral.DEFAULT_CLUSTER_TOL)
    eig = _counting(monkeypatch, np.linalg, "eigvalsh")
    roots = _counting(monkeypatch, hamiltonian, "kinetic_root")
    got = ground_data(P, model)
    assert len(eig) == solved
    # the partners are not even assembled; a mirror takes one SVD for both
    mirror = np.linalg.det(block_generator(P, model)[0]) < 0
    assert len(roots) == (0 if mirror else solved)
    tol = 1e-12 * max(abs(full[0]), abs(full[-1]))
    assert got[2] == mult and abs(got[0] - e0) <= tol and abs(got[1] - e1) <= tol


@pytest.mark.parametrize("name", ["x", "mirror", "generic"])
def test_record_matches_the_scipy_oracle(default_params, name):
    """solve_fiber and ground_data (numpy's zheevd) against scipy's zheevr on
    the dense H(P) of the mid model, at a C4, a mirror-plane and a generic
    momentum."""
    model = build_model(default_params.replace(N_max=2))
    P = MOMENTA[name]
    dense = scipy.linalg.eigvalsh(build_H(P, model))
    norm = max(abs(dense[0]), abs(dense[-1]))
    tol = 1e-12 * norm
    e0, e1, mult = _ground_triple(dense, spectral.DEFAULT_CLUSTER_TOL)
    solve = solve_fiber(P, model)
    got = ground_data(P, model)
    assert solve.mult == got[2] == mult
    assert abs(solve.E - e0) <= tol and abs(solve.E1 - e1) <= tol
    assert abs(got[0] - e0) <= tol and abs(got[1] - e1) <= tol
    assert abs(solve.h_norm - norm) <= tol
    sigma = bounds.bound_constants(model).sigma_minus(P)
    assert bounds.count_below(solve.eigenvalues, sigma) == bounds.count_below(
        dense, sigma
    )


def test_no_momentum_builds_the_dense_H(default_model, monkeypatch):
    """Every momentum, the generic one too, is solved in blocks."""
    def refuse(*args, **kwargs):
        raise AssertionError("every momentum is solved in blocks")

    monkeypatch.setattr(hamiltonian, "build_H", refuse)
    for P in MOMENTA.values():
        solve = solve_fiber(P, default_model)
        assert solve.sandwich is not None and solve.mult == 2
        assert ground_data(P, default_model)[2] == 2


@pytest.mark.parametrize("n_dirs", DIRECTION_COUNTS)
def test_comparison_operators_are_constant_on_the_orbits(default_params, n_dirs):
    """L_+- at |P| u are constant on every Gamma-orbit of the block
    generator, so they are diagonal on the blocks of H(|P| u)."""
    model = _model(default_params, n_dirs, 2)
    states = model.basis.states
    index = {tuple(s): i for i, s in enumerate(states)}
    for absp in (0.0, 0.45, 0.93, 1.7):
        P = absp * bounds.U_DIRECTION
        sym = block_generator(P, model)
        assert sym is not None
        _, perm, _ = sym
        image = np.empty_like(states)
        image[:, perm] = states
        step = np.array([index[tuple(s)] for s in image])
        for diag in (bounds.build_L_minus(P, model), bounds.build_L_plus(P, model)):
            scale = np.max(np.abs(diag))
            assert np.max(np.abs(diag[step] - diag)) <= 1e-14 * scale
