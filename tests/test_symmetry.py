"""Point group of the mode grid, the orbit reduction of Delta(P) and the
block diagonalization of H(P) under its stabilizer, by a rotation or by a
mirror."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from scipy.spatial.transform import Rotation

from pffiber import hamiltonian
from pffiber.hamiltonian import (
    SIGMA,
    _is_mirror,
    _symmetry_setup,
    block_generator,
    build_H,
    build_model,
    build_v,
    expand,
)
from pffiber.modes import (
    build_mode_set,
    dispersion,
    form_factors,
    grid_rotations,
    mode_action,
    orbit_representatives,
)
from pffiber.spectral import (
    _ground_triple,
    default_trial_set,
    delta_gap,
    ground_data,
    solve_fiber,
    stabilizer,
)

from oracles import apply_theta, block_basis, build_H_blocks, setup_blocks

P_ALONG_X = np.array([0.9345368022869702, 0.0, 0.0])
P_GENERIC = np.array([0.31, -0.47, 0.62])
# a Delta trial P - k of mid-sweep: P along x, k transverse; only the mirror
# z -> -z fixes it
P_MIRROR_Z = np.array([0.9345368022869702, -0.8, 0.0])
# in the plane x = y, which is a mirror of the 2-, 6- and 8-direction grids
P_MIRROR_XY = np.array([0.4, 0.4, 0.25])
DIRECTION_COUNTS = (2, 6, 8, 12)


def _rotations(params):
    return grid_rotations(form_factors(build_mode_set(params), params))


def _proper(group):
    return [g for g in group if np.linalg.det(g) > 0]


@pytest.mark.parametrize("n_dirs, order", [(2, 8), (6, 24), (8, 24), (12, 12)])
def test_group_order_per_direction_set(default_params, n_dirs, order):
    """``order`` is that of the det +1 subgroup; with the improper elements
    the grid's point group is twice as large and holds the inversion."""
    group = _rotations(default_params.replace(n_dirs=n_dirs))
    assert len(group) == 2 * order
    assert len(_proper(group)) == order
    keys = {g.tobytes() for g in group}
    assert np.eye(3).tobytes() in keys and np.diag([-1.0] * 3).tobytes() in keys
    for a in group:
        assert np.allclose(a @ a.T, np.eye(3)) and abs(np.linalg.det(a)) == 1.0
        for b in group:
            assert (a @ b).tobytes() in keys  # closed under composition


def test_model_carries_the_group(default_model):
    assert len(default_model.rotations) == 48
    assert len(_proper(default_model.rotations)) == 24


def test_ground_energy_invariant_under_the_group(default_model):
    rng = np.random.default_rng(2026)
    for _ in range(3):
        P = rng.uniform(-1.0, 1.0, size=3)
        e_p = ground_data(P, default_model)
        for r in default_model.rotations:
            assert abs(ground_data(r @ P, default_model) - e_p) <= 1e-12


def test_stabilizers(default_model):
    # (P, |stabilizer|, |its det +1 part|); along x it is C4v
    sizes = [(np.zeros(3), 48, 24), (P_ALONG_X, 8, 4), (P_MIRROR_Z, 2, 1),
             (P_GENERIC, 1, 1)]
    for P, full, proper in sizes:
        stab = stabilizer(default_model.rotations, P)
        assert len(stab) == full and len(_proper(stab)) == proper


@pytest.mark.parametrize("n_dirs", DIRECTION_COUNTS)
def test_ground_energy_invariant_under_improper_elements(default_params, n_dirs):
    model = build_model(default_params.replace(n_dirs=n_dirs))
    improper = [g for g in model.rotations if np.linalg.det(g) < 0]
    assert len(improper) == len(model.rotations) // 2
    P = np.random.default_rng(7).uniform(-1.0, 1.0, size=3)
    e_p = ground_data(P, model)
    for m in improper:
        assert abs(ground_data(m @ P, model) - e_p) <= 1e-12


def test_orbit_representatives_along_x(default_model):
    trials = default_trial_set(default_model)
    stab = stabilizer(default_model.rotations, P_ALONG_X)
    reps = orbit_representatives(trials, stab)
    # k = 0, and per radial shell: +x, -x and the four transverse directions
    assert len(trials) == 13 and len(reps) == 7
    assert np.array_equal(reps[0], np.zeros(3))


def _orbit_representatives_per_element(vectors, rotations):
    """One matvec per group element and vector: the loop that
    :func:`orbit_representatives` replaces by one einsum."""
    seen = set()
    out = []
    for v in vectors:
        v = np.asarray(v, dtype=float)
        label = min(tuple(r @ v) for r in rotations)
        if label not in seen:
            seen.add(label)
            out.append(v)
    return out


@pytest.mark.parametrize("n_dirs", DIRECTION_COUNTS)
@pytest.mark.parametrize("P", [np.zeros(3), P_ALONG_X], ids=["zero", "along-x"])
def test_orbit_representatives_equal_the_per_element_loop(default_params, n_dirs, P):
    model = build_model(default_params.replace(n_dirs=n_dirs, N_max=0))
    stab = stabilizer(model.rotations, P)
    if not P.any():
        assert len(stab) == len(model.rotations) and len(stab) in (16, 48, 24)
    trials = default_trial_set(model)
    # the trials twice and mirrored: orbits met again later in the input
    vectors = trials + [-k for k in trials] + trials[::-1]
    got = orbit_representatives(vectors, stab)
    want = _orbit_representatives_per_element(vectors, stab)
    assert len(got) == len(want) < len(vectors)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _delta_all_trials(P, model):
    e_p = ground_data(P, model)
    return min(
        ground_data(P - k, model) + float(dispersion(k, model.params.m_ph)) - e_p
        for k in default_trial_set(model)
    )


@pytest.mark.parametrize("P", [P_ALONG_X, P_GENERIC])
def test_orbit_reduced_delta_equals_full_trial_set(default_model, P):
    assert abs(delta_gap(P, default_model) - _delta_all_trials(P, default_model)) <= 1e-12


def test_mirror_reduces_the_delta_orbits(default_model):
    # z -> -z merges the trials +z and -z of each radial shell
    P = np.array([0.31, -0.47, 0.0])
    stab = stabilizer(default_model.rotations, P)
    assert len(orbit_representatives(default_trial_set(default_model), stab)) == 11
    assert abs(delta_gap(P, default_model) - _delta_all_trials(P, default_model)) <= 1e-12


# ----------------------------------------------------------------------
# block diagonalization of H(P) under its grid stabilizer
# ----------------------------------------------------------------------

def _spin_rotation(r):
    """D(R) = cos(phi/2) - i sin(phi/2) n.sigma from the rotation vector of
    a proper rotation R."""
    rotvec = Rotation.from_matrix(r).as_rotvec()
    phi = np.linalg.norm(rotvec)
    n_sigma = np.einsum("k,kab->ab", rotvec / phi, SIGMA)
    return np.cos(phi / 2) * np.eye(2) - 1j * np.sin(phi / 2) * n_sigma


def _state_rotation(basis, perm, signs):
    """Gamma(R) from the mode action, one occupation state at a time."""
    index = {tuple(s): i for i, s in enumerate(basis.states)}
    gamma = np.zeros((basis.dim, basis.dim))
    for i, occ in enumerate(basis.states):
        image = np.zeros_like(occ)
        image[perm] = occ
        gamma[index[tuple(image)], i] = np.prod(signs**occ)
    return gamma


@pytest.mark.parametrize("n_dirs", [2, 6, 12])
@pytest.mark.parametrize("P", [np.zeros(3), np.array([0.0, 0.0, 0.7]), P_ALONG_X])
def test_symmetry_commutes_with_H(default_params, n_dirs, P):
    model = build_model(default_params.replace(n_dirs=n_dirs))
    r, perm, signs = block_generator(P, model)
    h = build_H(P, model)
    assert np.array_equal(r @ P, P) and not np.array_equal(r, np.eye(3))
    u = np.kron(_spin_rotation(r), _state_rotation(model.basis, perm, signs))
    assert np.allclose(u.conj().T @ u, np.eye(len(u)), rtol=0, atol=1e-14)
    comm = np.linalg.norm(u @ h - h @ u, 2)
    assert comm <= 1e-12 * np.linalg.norm(h, 2)


def test_generators_on_the_octahedral_grid(default_model):
    def order(P):
        r = block_generator(P, default_model)[0]
        return next(n for n in range(1, 7) if np.allclose(
            np.linalg.matrix_power(r, n), np.eye(3)))

    assert order(np.zeros(3)) == 4
    assert order(P_ALONG_X) == 4
    assert order(np.array([0.4, 0.4, 0.4])) == 3
    assert order(np.array([0.3, 0.3, 0.0])) == 2
    assert block_generator(P_GENERIC, default_model) is None
    # at P = 0 the rotations win, though S4 and S6 have larger order
    assert np.linalg.det(block_generator(np.zeros(3), default_model)[0]) > 0
    mirror = block_generator(P_MIRROR_Z, default_model)[0]
    assert _is_mirror(mirror) and np.array_equal(mirror, np.diag([1.0, 1.0, -1.0]))


@pytest.mark.parametrize(
    "P",
    [np.zeros(3), P_ALONG_X, np.array([0.4, 0.4, 0.4]), np.array([0.3, 0.3, 0.0]),
     P_GENERIC],
)
def test_block_spectra_equal_the_dense_spectrum(default_model, P):
    h = build_H(P, default_model)
    blocks = build_H_blocks(P, default_model)
    assert sum(b.h.shape[0] for b in blocks) == 2 * default_model.dim
    got = np.sort(np.concatenate([np.linalg.eigvalsh(b.h) for b in blocks]))
    assert np.max(np.abs(got - np.linalg.eigvalsh(h))) <= 1e-12 * np.linalg.norm(h, 2)


def test_generic_momentum_is_one_dense_block(default_params):
    for n_dirs in DIRECTION_COUNTS:
        model = build_model(default_params.replace(n_dirs=n_dirs))
        assert len(stabilizer(model.rotations, P_GENERIC)) == 1
        blocks = build_H_blocks(P_GENERIC, model)
        assert len(blocks) == 1
        assert np.array_equal(blocks[0].h, build_H(P_GENERIC, model))
        dense = _ground_triple(scipy.linalg.eigvalsh(build_H(P_GENERIC, model)), 1e-8)
        solve = solve_fiber(P_GENERIC, model)
        assert ground_data(P_GENERIC, model) == dense[0]
        assert solve.mult == dense[2]
        assert np.allclose((solve.E, solve.E1), dense[:2], rtol=0, atol=1e-12)


def test_mid_model_ground_level_along_x(default_params):
    model = build_model(default_params.replace(N_max=2))
    h = build_H(P_ALONG_X, model)
    e0, e1, mult = _ground_triple(scipy.linalg.eigvalsh(h), 1e-8)
    solve = solve_fiber(P_ALONG_X, model)
    assert len(build_H_blocks(P_ALONG_X, model)) == 4
    assert solve.mult == mult == 2
    scale = 1e-12 * np.linalg.norm(h, 2)
    assert abs(ground_data(P_ALONG_X, model) - e0) <= scale
    assert abs(solve.E - e0) <= scale and abs(solve.E1 - e1) <= scale


def test_rotation_without_mode_action_gives_one_block(default_params):
    # a turn about (1,1,1) moves eps off the frame on the icosahedral grid,
    # whose mirrors are the coordinate planes only; on the cube-diagonal
    # grid the mirror y = z has no mode action either
    for n_dirs, P, size in [(12, np.array([0.4, 0.4, 0.4]), 3),
                            (8, np.array([0.4, 0.3, 0.3]), 2)]:
        model = build_model(default_params.replace(n_dirs=n_dirs))
        stab = stabilizer(model.rotations, P)
        assert len(stab) == size
        assert all(mode_action(r, model.modes) is None
                   for r in stab if not np.array_equal(r, np.eye(3)))
        assert block_generator(P, model) is None
        blocks = build_H_blocks(P, model)
        assert len(blocks) == 1 and np.array_equal(blocks[0].h, build_H(P, model))


# ----------------------------------------------------------------------
# the two blocks of H(P) under a mirror that fixes P
# ----------------------------------------------------------------------

def _mirrors_with_action(model, P):
    out = []
    for m in stabilizer(model.rotations, P):
        if _is_mirror(m) and (action := mode_action(m, model.modes)) is not None:
            out.append((m, *action))
    return out


def _mirror_plane_momenta(n_dirs):
    # the coordinate planes are mirrors of every grid, x = y is not one of
    # the icosahedral grid
    return [P_MIRROR_Z] + ([] if n_dirs == 12 else [P_MIRROR_XY])


@pytest.mark.parametrize("n_dirs", DIRECTION_COUNTS)
def test_mirror_block_spectra_equal_the_dense_spectrum(
    default_params, n_dirs, monkeypatch
):
    model = build_model(default_params.replace(n_dirs=n_dirs))
    for P in _mirror_plane_momenta(n_dirs) + [np.zeros(3)]:
        h = build_H(P, model)
        dense = np.linalg.eigvalsh(h)
        tol = 1e-12 * np.linalg.norm(h, 2)
        mirrors = _mirrors_with_action(model, P)
        assert mirrors
        for m, perm, signs in mirrors:
            # the set-up of this mirror, built outside the grid's store, which
            # keeps the one of the generator that build_H_blocks picks
            with monkeypatch.context() as patch:
                patch.setattr(hamiltonian, "block_generator", lambda *_: (m, perm, signs))
                setup = _symmetry_setup(P, model)
            blocks = setup_blocks(P[None], model, setup)
            assert [b.h.shape for b in blocks] == [(1, model.dim, model.dim)] * 2
            got = np.sort(np.concatenate([np.linalg.eigvalsh(b.h[0]) for b in blocks]))
            assert np.max(np.abs(got - dense)) <= tol
            # block 0, the one that ground_data solves first and certify_above
            # bounds, spans the -i eigenspace of U = D(-M) x Gamma(M)
            u = np.kron(_spin_rotation(-m), _state_rotation(model.basis, perm, signs))
            w = np.column_stack([expand(blocks[0].parts, x) for x in np.eye(model.dim)])
            assert np.max(np.abs(u @ w + 1j * w)) <= 1e-14
        if P.any():  # no rotation with a mode action fixes these momenta
            assert _is_mirror(block_generator(P, model)[0])
            got = np.sort(np.concatenate(
                [np.linalg.eigvalsh(b.h) for b in build_H_blocks(P, model)]))
            assert np.max(np.abs(got - dense)) <= tol


@pytest.mark.parametrize("n_dirs", DIRECTION_COUNTS)
def test_mirror_commutes_with_H_and_anticommutes_with_sigma_v(default_params, n_dirs):
    """U = D(-M) x Gamma(M), built one state at a time: U H U^dagger = H and
    U (sigma.v) U^dagger = -sigma.v, so U^2 = -1."""
    model = build_model(default_params.replace(n_dirs=n_dirs))
    for P in _mirror_plane_momenta(n_dirs):
        h = build_H(P, model)
        v = build_v(P, model)
        s = sum(np.kron(SIGMA[j], v[j]) for j in range(3))
        for m, perm, signs in _mirrors_with_action(model, P):
            u = np.kron(_spin_rotation(-m), _state_rotation(model.basis, perm, signs))
            assert np.allclose(u.conj().T @ u, np.eye(len(u)), rtol=0, atol=1e-14)
            assert np.allclose(u @ u, -np.eye(len(u)), rtol=0, atol=1e-14)
            diff = u @ h @ u.conj().T - h
            assert np.linalg.norm(diff, 2) <= 1e-12 * np.linalg.norm(h, 2)
            anti = u @ s @ u.conj().T + s
            assert np.linalg.norm(anti, 2) <= 1e-12 * np.linalg.norm(s, 2)


def test_mid_model_mirror_trial(default_params):
    # the Delta trials of mid-sweep that no rotation fixes: two blocks of
    # n = 325 in place of one dense n = 650 solve
    model = build_model(default_params.replace(N_max=2))
    h = build_H(P_MIRROR_Z, model)
    e0, e1, mult = _ground_triple(scipy.linalg.eigvalsh(h), 1e-8)
    blocks = build_H_blocks(P_MIRROR_Z, model)
    assert [b.h.shape[0] for b in blocks] == [325, 325]
    solve = solve_fiber(P_MIRROR_Z, model)
    assert solve.mult == mult == 2
    scale = 1e-12 * np.linalg.norm(h, 2)
    assert abs(ground_data(P_MIRROR_Z, model) - e0) <= scale
    assert abs(solve.E - e0) <= scale and abs(solve.E1 - e1) <= scale


# ----------------------------------------------------------------------
# the real form of the rotation blocks: J = theta U(sigma)
# ----------------------------------------------------------------------

P_ALONG_DIAGONALS = [np.zeros(3), P_ALONG_X, np.array([0.4, 0.4, 0.4]),
                     np.array([0.3, 0.3, 0.0])]


def _half_turn(u):
    """D = cos(pi/2) - i sin(pi/2) u.sigma about the unit vector u."""
    return np.cos(np.pi / 2) * np.eye(2) - 1j * np.sin(np.pi / 2) * np.einsum(
        "k,kab->ab", u, SIGMA)


def _inverting_mirror(model, P, r):
    """The first mirror of the stabilizer of P with a mode action that
    inverts R (sigma R sigma^T = R^T) and holds its axis in its plane."""
    w, vecs = np.linalg.eig(r)
    axis = np.real(vecs[:, np.argmin(np.abs(w - 1.0))])
    for m in model.rotations:
        if not (np.array_equal(m @ P, P) and _is_mirror(m)):
            continue
        if np.array_equal(m @ r @ m.T, r.T) and np.allclose(m @ axis, axis):
            if (action := mode_action(m, model.modes)) is not None:
                return m, action
    return None


def _antiunitary_J(model, m, perm, signs):
    """The matrix A of J psi = A conj(psi), J = theta U(sigma), with U(sigma)
    = D(-sigma) x Gamma(sigma) built one state at a time and D the half turn
    about the mirror normal whose first nonzero component is positive."""
    w, vecs = np.linalg.eigh(m)
    u = vecs[:, np.argmin(w)]
    u = u * np.sign(u[np.flatnonzero(np.abs(u) > 1e-12)[0]])
    big = np.kron(_half_turn(u), _state_rotation(model.basis, perm, signs))
    return np.column_stack([apply_theta(col) for col in big.T])


def _rotation_block_cases():
    cases = [(n_dirs, 1, P) for n_dirs in DIRECTION_COUNTS for P in P_ALONG_DIAGONALS]
    return cases + [(6, 2, P_ALONG_X)]


@pytest.mark.parametrize("n_dirs, n_max, P", _rotation_block_cases())
def test_rotation_blocks_are_real_on_J_fixed_columns(default_params, n_dirs, n_max, P):
    model = build_model(default_params.replace(n_dirs=n_dirs, N_max=n_max))
    blocks = build_H_blocks(P, model)
    sym = block_generator(P, model)
    found = None
    if sym is not None and np.linalg.det(sym[0]) > 0:
        found = _inverting_mirror(model, P, sym[0])
    if found is None:
        assert all(b.h.dtype == complex for b in blocks)
        return
    h = build_H(P, model)
    a = _antiunitary_J(model, found[0], *found[1])
    assert np.max(np.abs(a @ a.conj() - np.eye(len(a)))) <= 1e-13  # J^2 = +1
    comm = a @ h.conj() @ a.conj() - h  # J H J^-1 - H
    assert np.linalg.norm(comm, 2) <= 1e-12 * np.linalg.norm(h, 2)
    for b in blocks:
        assert b.h.dtype == np.float64
        w = block_basis(b, model.dim)
        assert np.max(np.abs(a @ w.conj() - w)) <= 1e-13  # J w = w
        assert np.max(np.abs(w.conj().T @ h @ w - b.h)) <= 1e-12 * np.linalg.norm(h, 2)


def test_the_real_form_covers_the_octahedral_diagonals(default_params):
    model = build_model(default_params)
    for P in P_ALONG_DIAGONALS:
        assert all(b.h.dtype == np.float64 for b in build_H_blocks(P, model))


@pytest.mark.parametrize("n_dirs", DIRECTION_COUNTS)
def test_mirror_only_and_generic_momenta_stay_complex(default_params, n_dirs):
    """J = theta U(sigma) swaps the two mirror blocks, so neither has a real
    form; a generic momentum has no sigma at all."""
    model = build_model(default_params.replace(n_dirs=n_dirs))
    for P in _mirror_plane_momenta(n_dirs) + [P_GENERIC]:
        assert all(b.h.dtype == complex for b in build_H_blocks(P, model))


def test_columns_that_J_does_not_fix_are_refused(default_model, monkeypatch):
    """With the spin phase of J on chi_+ turned by i, the chi_+ columns are
    no longer J-fixed, and the imaginary part of s is not dropped."""
    structure = hamiltonian._real_structure

    def turned(*args):
        step, flip, (up, down) = structure(*args)
        return step, flip, (1j * up, down)

    monkeypatch.setattr(hamiltonian, "_real_structure", turned)
    # a fresh store, so that no set-up stored before the patch is read
    with pytest.raises(RuntimeError, match="imaginary part"):
        build_H_blocks(P_ALONG_X, dataclasses.replace(default_model, setups={}))
