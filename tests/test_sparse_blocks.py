"""The symmetry blocks of H(P) are assembled from the ladder table of the
basis, with no dense Fock operator: each block, and the sigma.v it is the
function of, against the dense oracle W^dagger X W, the solve path with
every dense Fock builder made to raise, and the memory that path takes."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from pffiber import hamiltonian
from pffiber.hamiltonian import (
    _real_block,
    _sigma_v,
    _spin_frame,
    build_A0,
    build_B0,
    build_H,
    build_model,
    sigma_dot_v,
)
from pffiber.modes import stabilizer
from pffiber.spectral import default_trial_set, delta_gap, ground_data, solve_fiber

from oracles import block_basis, build_H_blocks

P_ALONG_X = np.array([0.7, 0.0, 0.0])  # real rotation blocks on every grid
P_MIRROR_Z = np.array([0.6, -0.5, 0.0])  # only the mirror z -> -z fixes it
P_DIAGONAL = np.array([0.4, 0.4, 0.4])  # complex C3 blocks on the 12-direction grid


def _cases():
    # one shell; the 12-direction grid at N_max 3 (n = 5850) is too large
    # for the dense oracle
    out = []
    for n_dirs in (2, 6, 8, 12):
        for n_max in (1, 2, 3):
            if (n_dirs, n_max) == (12, 3):
                continue
            momenta = [P_ALONG_X, P_MIRROR_Z] + ([P_DIAGONAL] if n_dirs == 12 else [])
            out += [(n_dirs, n_max, P) for P in momenta]
    return out


def _block_sigma_v(P, model, blocks):
    """The sigma.v of each block as build_H_blocks projects it: on its own
    columns for a rotation, between the two blocks for a mirror."""
    setup = model.setups[stabilizer(model.rotations, P).tobytes()]
    mirror, real, coefs, _ = setup
    frame = _spin_frame(P[None], model, coefs)  # a stack of one momentum
    if mirror:
        return [_sigma_v(model, frame, blocks[1].parts, blocks[0].parts)[0]]
    out = [_sigma_v(model, frame, b.parts, b.parts) for b in blocks]
    return [(_real_block(s, P[None]) if real else s)[0] for s in out]


@pytest.mark.parametrize(
    "n_dirs, n_max, P", _cases(),
    ids=[f"dirs{d}-N{n}-P{i}" for i, (d, n, _) in enumerate(_cases())],
)
def test_every_block_equals_the_dense_oracle(default_params, n_dirs, n_max, P):
    """W = [W_0, W_1, ...] is unitary, W^dagger H(P) W is the direct sum of
    the blocks, and W^dagger s(P) W holds the projected s of each block."""
    model = build_model(default_params.replace(n_shells=1, n_dirs=n_dirs, N_max=n_max))
    blocks = build_H_blocks(P, model)
    assert len(blocks) > 1
    h = build_H(P, model)
    tol = 1e-14 * np.linalg.norm(h, 2)
    w = np.hstack([block_basis(b, model.dim) for b in blocks])
    assert w.shape == h.shape
    assert np.max(np.abs(w.conj().T @ w - np.eye(len(w)))) <= 1e-14
    assert np.max(np.abs(w.conj().T @ h @ w - scipy.linalg.block_diag(
        *[b.h for b in blocks]))) <= tol
    on_blocks = w.conj().T @ sigma_dot_v(P, model) @ w
    edges = np.cumsum([0] + [len(b.h) for b in blocks])
    cut = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    projected = _block_sigma_v(P, model, blocks)
    if len(projected) == 1:  # mirror: s maps the -i block onto the +i block
        oracle = [on_blocks[cut[1], cut[0]]]
    else:
        oracle = [on_blocks[c, c] for c in cut]
    for got, want in zip(projected, oracle):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= tol


def _no_dense_fock(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a dense Fock operator on the solve path")

    for name in ("build_v", "build_A0", "build_B0", "field_sum"):
        monkeypatch.setattr(hamiltonian, name, refuse)


@pytest.mark.parametrize("P", [P_ALONG_X, P_MIRROR_Z], ids=["x", "mirror"])
def test_the_solve_path_builds_no_dense_fock_operator(default_params, monkeypatch, P):
    model = build_model(default_params.replace(e=0.21))  # a model of its own
    _no_dense_fock(monkeypatch)
    solve = solve_fiber(P, model)
    assert solve.mult == 2
    assert abs(ground_data(P, model) - solve.E) <= 1e-12 * solve.h_norm
    # a trial off the mirror plane would make P - k generic, and a generic
    # momentum builds H(P) densely; the trials along the plane keep a symmetry
    trials = [k for k in default_trial_set(model) if k[2] == 0.0]
    assert delta_gap(P, model, trials) <= model.params.m_ph
    assert "A" not in vars(model) and "B" not in vars(model)


def test_A_and_B_on_demand_equal_the_builders(default_params):
    model = build_model(default_params.replace(e=0.23))
    solve_fiber(P_ALONG_X, model)
    assert "A" not in vars(model)
    for got, want in ((model.A, build_A0(model.basis, model.table)),
                      (model.B, build_B0(model.basis, model.table))):
        assert len(got) == len(want) == 3
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    assert model.A is model.A  # built once


def test_model_and_blocks_stay_small(default_params):
    """48 modes at N_max 2, Fock dim 1225: one dense real Fock matrix is
    12 MB and one dense complex H(P) 96 MB.  Measured on this path: 1.3 MB
    for the model and a 15 MB peak for the two blocks."""
    params = default_params.replace(n_shells=4, N_max=2, e=0.17)
    hamiltonian.build_model.cache_clear()
    hamiltonian._grid.cache_clear()
    tracemalloc.start()
    try:
        model = build_model(params)
        model_bytes = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        blocks = build_H_blocks(P_ALONG_X, model, one_per_pair=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.dim == 1225 and [b.h.shape[0] for b in blocks] == [609, 616]
    assert model_bytes <= 4 * 2**20
    assert peak <= 40 * 2**20
