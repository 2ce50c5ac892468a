"""The theta-partner of every block pair is the theta-image of its head:
the record builds and solves the head alone and reads the partner's
eigenvalues, eigenvector residuals and sandwich margins from it, and
checks theta on sigma.v.  Checked against the partner block assembled, rooted and solved
on its own, by counting the solves, and with a sigma.v that theta does
not anticommute with, where the theta residual must fail and bound the
error of the partners."""

import numpy as np
import pytest

from pffiber import bounds, hamiltonian, spectral
from pffiber.hamiltonian import build_model, pair_heads, setup_stacks
from pffiber.kramers import THETA_COMM_TOL, kramers_certificate
from pffiber.spectral import solve_batch, solve_fiber

from oracles import solve_block

MOMENTA = {
    "C4": [0.7, 0.0, 0.0],
    "C3": [0.5, 0.5, 0.5],  # block 1 is its own partner
    "C2": [0.5, 0.5, 0.0],
    "mirror": [0.9, -0.8, 0.0],
    "generic": [0.31, -0.47, 0.62],
}
CONFIGS = {"desk": {"N_max": 1}, "mid": {"N_max": 2}, "desk, M = 1e-6": {"N_max": 1, "M": 1e-6}}


@pytest.mark.parametrize("name", MOMENTA)
@pytest.mark.parametrize("config", CONFIGS)
def test_partner_entries_equal_an_independent_solve(default_params, config, name):
    """Each partner's eigenvalues, eigenpair residuals and, at P along u,
    sandwich margins equal those of its block assembled from s_t, rooted
    and solved on its own, within 1e-12 ||H|| (the margins within 1e-12 of
    their own size, where that is more); the bound on its theta defect is
    within 1e-12 ||H|| too, at every M."""
    model = build_model(default_params.replace(**CONFIGS[config]))
    P = np.array([MOMENTA[name]])
    along = np.array([spectral._along_u(P[0])])
    diagonals = bounds.comparison_diagonals(P, model) if along[0] else None
    ((_, setup),) = setup_stacks(P, model)
    partners = 0
    for i in pair_heads(setup):
        values, _ = spectral._pair_values(P, model, setup, i, along, diagonals)
        for b, got in values.items():
            want = solve_block(P, model, setup, b, diagonals)
            tol = 1e-12 * np.max(np.abs(want["vals"]))
            assert np.max(np.abs(got["vals"] - want["vals"])) <= tol
            assert got["eigenpair"][0] <= tol and want["eigenpair"][0] <= tol
            if diagonals is not None:  # L_- grows as M falls: on its scale
                scale = max(tol, 1e-12 * np.max(np.abs(want["margins"])))
                assert np.max(np.abs(np.ravel(got["margins"]) - want["margins"][0])) <= scale
            assert got["theta"][0] <= tol
        partners += len(values) - 1
    assert partners == {"C4": 2, "C3": 1, "C2": 1, "mirror": 1, "generic": 0}[name]


def _counting(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args[0].shape[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("name", MOMENTA)
def test_the_record_solves_one_block_per_theta_pair(default_model, monkeypatch, name):
    """Per theta-pair, for a stack of two momenta: one stacked root (a
    mirror pair's one SVD), one stacked ``eigh`` and, along u, one pair of
    stacked margin ``eigvalsh``."""
    model = default_model
    P = np.array([t * np.asarray(MOMENTA[name]) for t in (1.0, 1.5)])
    ((_, setup),) = setup_stacks(P, model)
    pairs = len(pair_heads(setup))
    mirror = setup[0]
    along = spectral._along_u(P[0])
    roots = _counting(monkeypatch, hamiltonian, "kinetic_root")
    svds = _counting(monkeypatch, np.linalg, "svd")
    eighs = _counting(monkeypatch, spectral, "_eigh")
    eigvals = _counting(monkeypatch, np.linalg, "eigvalsh")
    solves = solve_batch(P, model)
    assert eighs == [2] * pairs
    assert (svds, roots) == (([2] * pairs, []) if mirror else ([], [2] * pairs))
    assert eigvals == ([2] * 2 * pairs if along else [])
    for solve in solves:
        assert solve.mult == 2 and solve.residuals["theta_commutation"] <= 1e-12


def _spoil_sigma_v(monkeypatch):
    """Add to sigma.v a Hermitian term that theta does not reverse, 1e-10
    times the identity on every rotation or generic block, and 1e-10 on
    one entry of a mirror's off-block s_i (and so of s_t = s_i^dagger)."""
    real = hamiltonian._sigma_v

    def spoiled(model, frame, rows, cols):
        s = real(model, frame, rows, cols)
        if rows is cols:  # a rotation's s_i maps its block onto itself
            np.einsum("...ii->...i", s)[...] += 1e-10
        else:  # a mirror's maps it onto its partner
            s[..., 0, 0] += 1e-10
        return s

    monkeypatch.setattr(hamiltonian, "_sigma_v", spoiled)


def _independent_eigenvalues(P, model):
    """The eigenvalues of H(P), every block assembled and solved on its own."""
    P = np.array([P])
    ((_, setup),) = setup_stacks(P, model)
    return np.sort(np.concatenate([
        solve_block(P, model, setup, i)["vals"][0]
        for i, (_, parts, _) in enumerate(setup[3]) if parts
    ]))


@pytest.mark.parametrize("M", [1.0, 1e-6])
@pytest.mark.parametrize("name", MOMENTA)
def test_a_sigma_v_that_theta_does_not_reverse_fails_the_theta_check(
    default_params, monkeypatch, name, M
):
    """A sigma.v that theta commutes with in part puts the record's theta
    residual far above ``kramers.THETA_COMM_TOL``, at a rotation, a mirror
    and a generic momentum, though the heads are rooted as before; the
    Kramers certificate then withholds "exactly two-fold".  The residual
    bounds how far the record's spectrum, its partners taken as theta
    images, is from that of every block solved on its own, at any M."""
    model = build_model(default_params.replace(M=M))
    P = MOMENTA[name]
    solve = solve_fiber(P, model)
    assert solve.residuals["theta_commutation"] <= 1e-15
    assert kramers_certificate(P, model).conclusion == "exactly two-fold"
    _spoil_sigma_v(monkeypatch)
    solve = solve_fiber(P, model)
    theta = solve.residuals["theta_commutation"]
    assert theta > 10 * THETA_COMM_TOL
    assert kramers_certificate(P, model).conclusion == "at least two-fold"
    error = np.max(np.abs(solve.eigenvalues - _independent_eigenvalues(P, model)))
    assert error <= theta * solve.h_norm
