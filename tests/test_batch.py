"""Momenta that share a stabilizer are built and solved as stacks
(``block_stacks``, ``ground_batch``, ``solve_batch``, ``delta_gaps``): every
result equals that of the momentum alone, bit for bit, each stack stays
under ``STACK_BYTES``, a failure names its own momentum, and the cache
counts one lookup per momentum."""

import dataclasses
import re

import numpy as np
import pytest

from pffiber import hamiltonian, spectral
from pffiber.hamiltonian import STACK_BYTES, block_stacks, build_model
from pffiber.modes import stabilizer
from pffiber.spectral import (
    EigensolverError,
    EnergyCache,
    delta_gap,
    delta_gaps,
    ground_batch,
    ground_data,
    solve_batch,
    solve_fiber,
)

from oracles import build_H_blocks

DIRECTION_COUNTS = (2, 6, 8, 12)
MAGNITUDES = (0.35, 0.7, 1.3, 1.9)
FAMILIES = {
    "real": lambda t: [t, 0.0, 0.0],  # real rotation blocks on every grid
    "complex": lambda t: [t, 0.0, 0.0],  # the same, with J switched off
    "mirror": lambda t: [t, -0.8 * t - 0.1, 0.0],  # only the mirror z -> -z
    "generic": lambda t: [0.31 * t, -0.47, 0.62 * t + 0.05],  # one dense block
}


def _model(params, n_dirs, kind, monkeypatch, N_max=1):
    model = build_model(params.replace(n_dirs=n_dirs, n_shells=1, N_max=N_max))
    if kind == "complex":
        # no real structure: the rotation blocks stay complex; a store of its
        # own, so that no real set-up stored before is read
        monkeypatch.setattr(hamiltonian, "_real_structure", lambda *_: None)
        model = dataclasses.replace(model, setups={})
    return model


def _momenta(kind):
    return np.array([FAMILIES[kind](t) for t in MAGNITUDES])


def _kind(model, P):
    mirror, real, _, blocks = model.setups[stabilizer(model.rotations, P).tobytes()]
    if len(blocks) == 1:  # R = 1: every rotation of order n > 1 gives >= 2
        return "generic"
    return "mirror" if mirror else "real" if real else "complex"


def _same_blocks(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.h.dtype == b.h.dtype and a.h.shape == b.h.shape
        assert a.h.tobytes() == b.h.tobytes()
        assert a.partner == b.partner and a.parts is b.parts and a.theta is b.theta


@pytest.mark.parametrize("kind", FAMILIES)
@pytest.mark.parametrize("n_dirs", DIRECTION_COUNTS)
def test_a_stack_of_momenta_equals_each_momentum_alone(
    default_params, monkeypatch, n_dirs, kind
):
    model = _model(default_params, n_dirs, kind, monkeypatch)
    P = _momenta(kind)
    for one_per_pair in (False, True):
        stacked = build_H_blocks(P, model, one_per_pair)
        assert len(stacked) == len(P)
        for p, blocks in zip(P, stacked):
            _same_blocks(blocks, build_H_blocks(p, model, one_per_pair))
            assert _kind(model, p) == kind
    # the momenta of a kind share their stabilizer: their stacks follow
    # each other in the order of P
    stacks = list(block_stacks(P, model))
    assert [i for index, _ in stacks for i in index] == list(range(len(P)))
    assert all(b.h.shape[0] == len(index) for index, blocks in stacks for b in blocks)


def test_a_mixed_stack_keeps_the_order_of_its_momenta(default_params, monkeypatch):
    model = _model(default_params, 6, "real", monkeypatch)
    kinds = ("real", "mirror", "generic")
    P = np.array([FAMILIES[k](t) for t in MAGNITUDES for k in kinds])
    P = np.vstack([P, np.zeros(3), P[4]])  # P = 0 and a repeated momentum
    stacks = list(block_stacks(P, model))
    assert sorted(i for index, _ in stacks for i in index) == list(range(len(P)))
    # one stack each for the real group, the mirror group, the generic
    # group and P = 0
    assert sorted(len(index) for index, _ in stacks) == [1, 4, 4, 5]
    for p, blocks in zip(P, build_H_blocks(P, model)):
        _same_blocks(blocks, build_H_blocks(p, model))


def _same_record(a, b):
    assert a.P == b.P and a.E == b.E and a.E1 == b.E1 and a.mult == b.mult
    assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
    assert a.h_norm == b.h_norm and a.residuals == b.residuals
    assert a.ground_pairing == b.ground_pairing and a.sandwich == b.sandwich


@pytest.mark.parametrize("kind", FAMILIES)
@pytest.mark.parametrize("n_dirs", DIRECTION_COUNTS)
def test_batched_solves_equal_the_single_ones(
    default_params, monkeypatch, n_dirs, kind
):
    model = _model(default_params, n_dirs, kind, monkeypatch)
    P = _momenta(kind)
    for p, triple, solve in zip(P, ground_batch(P, model), solve_batch(P, model)):
        assert triple == ground_data(p, model)
        _same_record(solve, solve_fiber(p, model))
    assert delta_gaps(P, model) == [delta_gap(p, model) for p in P]


def test_stacks_stay_under_stack_bytes(default_params, monkeypatch):
    model = build_model(default_params)
    P = np.array([[t, 0.0, 0.0] for t in np.linspace(0.1, 1.9, 20)])
    build_H_blocks(P[0], model)
    setup = model.setups[stabilizer(model.rotations, P[0]).tobytes()]
    per_momentum = hamiltonian._momentum_bytes(model, setup)
    assert per_momentum >= max(b.h.nbytes for b in build_H_blocks(P[0], model))
    monkeypatch.setattr(hamiltonian, "STACK_BYTES", 3 * per_momentum)
    sizes = []
    for index, blocks in block_stacks(P, model):
        sizes.append(len(index))
        assert all(b.h.nbytes <= 3 * per_momentum for b in blocks)
    assert sizes == [3] * 6 + [2]
    for p, blocks in zip(P, build_H_blocks(P, model)):
        _same_blocks(blocks, build_H_blocks(p, model))
    for p, triple in zip(P, ground_batch(P, model)):
        assert triple == ground_data(p, model)


@pytest.mark.parametrize("N_max", [1, 2])
def test_no_stack_exceeds_stack_bytes(default_params, N_max):
    model = build_model(default_params.replace(N_max=N_max))
    P = np.vstack([_momenta(kind) for kind in ("real", "mirror", "generic")])
    for index, blocks in block_stacks(P, model):
        assert all(len(index) == 1 or b.h.nbytes <= STACK_BYTES for b in blocks)


def test_a_mid_scale_mirror_block_is_solved_alone(default_params):
    """325 x 325 complex blocks (1.7 MB) exceed STACK_BYTES: one per stack,
    so the SVD workspace is that of one momentum."""
    model = build_model(default_params.replace(N_max=2))
    assert model.dim == 325
    P = _momenta("mirror")[:3]
    groups = list(block_stacks(P, model, one_per_pair=True))
    assert [list(index) for index, _ in groups] == [[0], [1], [2]]
    for _, blocks in groups:  # each a stream: one block, built when asked
        (block,) = blocks
        assert block.h.shape == (1, 325, 325)
        assert block.h.nbytes > STACK_BYTES
    # at desk scale the whole group is one stack
    desk = build_model(default_params)
    assert [len(index) for index, _ in block_stacks(P, desk)] == [3]


def test_a_residual_failure_names_its_own_momentum(default_model, monkeypatch):
    real = spectral._eigh

    def spoiled(h, P):
        vals, vecs = real(h, P)
        vecs = vecs.copy()
        vecs[1] = vecs[1][:, ::-1]  # the second momentum's vectors only
        return vals, vecs

    monkeypatch.setattr(spectral, "_eigh", spoiled)
    P = np.array([[0.25, 0.0, 0.0], [0.75, 0.0, 0.0], [1.25, 0.0, 0.0]])
    with pytest.raises(EigensolverError, match=re.escape("at P = (0.75, 0.0, 0.0)")):
        solve_batch(P, default_model)


def _count(cache):
    return cache.hits, cache.misses


@pytest.mark.parametrize("batch, single", [
    (ground_batch, ground_data), (solve_batch, solve_fiber), (delta_gaps, delta_gap),
])
def test_the_cache_counts_one_lookup_per_momentum(default_params, batch, single):
    """A batch with repeated momenta and one already cached looks each
    momentum up once, and finds and stores what one call per momentum
    would."""
    model = build_model(default_params.replace(e=0.07))  # a model of its own
    P = np.array([[0.3, 0.0, 0.0], [0.6, -0.5, 0.0], [0.3, 0.0, 0.0],
                  [1.1, 0.0, 0.0], [0.6, -0.5, 0.0]])
    batched, looped = EnergyCache(), EnergyCache()
    for cache in (batched, looped):
        single(P[3], model, cache=cache)
    got = batch(P, model, cache=batched)
    want = [single(p, model, cache=looped) for p in P]
    assert _count(batched) == _count(looped)
    assert batched._data == looped._data
    assert batched.solves.keys() == looped.solves.keys()
    if batch is solve_batch:
        assert _count(batched) == (3, 3)
        assert got[0] is got[2] and got[3] is solve_fiber(P[3], model, cache=batched)
        for solve in got:  # a record replaces the ground_data triple
            key = EnergyCache.key(model.params, solve.P)
            assert batched.get(key) == (solve.E, solve.E1, solve.mult)
    else:
        assert got == want
