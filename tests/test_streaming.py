"""The blocks of H(P) come one at a time, or one theta-pair at a time, and
each is solved before the next is built; the kinetic root is a a^dagger with
a = u f^{1/2}, exactly symmetric for a real block."""

import tracemalloc

import numpy as np
import pytest

from pffiber import hamiltonian
from pffiber.fock import hermitize
from pffiber.hamiltonian import (
    SIGMA,
    build_H,
    build_model,
    kinetic_root,
)
from pffiber.kramers import frobenius, theta_defect, theta_map
from pffiber.modes import stabilizer
from pffiber.spectral import ground_data, solve_batch, solve_fiber

from oracles import build_H_blocks

P_ALONG_X = np.array([0.7, 0.0, 0.0])


def _hermitian(rng, shape, real):
    a = rng.standard_normal(shape)
    if not real:
        a = a + 1j * rng.standard_normal(shape)
    return hermitize(a)


@pytest.mark.parametrize("shape", [(40, 40), (3, 40, 40)])
def test_a_real_kinetic_root_is_exactly_symmetric(rng, shape):
    h = kinetic_root(_hermitian(rng, shape, real=True), 0.7)
    assert h.dtype == np.float64
    assert np.array_equal(h, h.swapaxes(-1, -2))


@pytest.mark.parametrize("real", [True, False])
def test_a_stack_of_roots_equals_each_root_alone(rng, real):
    s = _hermitian(rng, (4, 30, 30), real)
    stacked = kinetic_root(s, 1.0)
    for one, root in zip(s, stacked):
        assert kinetic_root(one, 1.0).tobytes() == root.tobytes()


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("M", [1.0, 0.3])
def test_kinetic_root_agrees_with_the_scaled_product(rng, real, M):
    """a a^dagger with a = u f^{1/2} against (u f) u^dagger."""
    s = _hermitian(rng, (60, 60), real)
    lam, u = np.linalg.eigh(s)
    f = np.sqrt(lam * lam + M * M)
    old = hermitize((u * f) @ u.conj().T)
    assert np.max(np.abs(kinetic_root(s, M) - old)) <= 1e-14 * np.max(f)


def test_block_adds_the_field_energy_on_the_diagonal_only(default_model, rng):
    model = default_model
    build_H_blocks(P_ALONG_X, model)
    _, _, _, specs = model.setups[stabilizer(model.rotations, P_ALONG_X).tobytes()]
    partner, parts = specs[0]
    rows = np.concatenate([cols.rep for _, cols in parts])
    root = _hermitian(rng, (2, rows.size, rows.size), real=True)
    block = hamiltonian._block(model, root.copy(), partner, parts, 0)
    want = model.params.gamma * root
    off = ~np.eye(rows.size, dtype=bool)
    assert np.array_equal(block.h[:, off], want[:, off])
    diagonal = np.einsum("...ii->...i", block.h)
    assert np.array_equal(diagonal, np.einsum("...ii->...i", want) + model.hf[rows])
    assert block.partner == partner and block.parts is parts and block.index == 0


def test_theta_defect_equals_the_dense_products(default_model):
    """The W = 1 twist (s2 x 1) conj(H) (s2 x 1) is a gather of the spin
    quadrants, equal to the dense product bit for bit; K conj(H) K^dagger
    is formed without a conjugate copy of K, equal to the plain product to
    rounding."""
    h = build_H([0.31, -0.47, 0.62], default_model)
    s2 = np.kron(SIGMA[1], np.eye(default_model.dim))
    for dst in (h, h + 1e-3 * np.eye(len(h))):
        assert theta_defect(h, dst) == float(frobenius(s2 @ np.conj(h) @ s2 - dst))
    blocks = build_H_blocks(P_ALONG_X, default_model)
    for b in blocks:
        twin = blocks[b.partner]
        k = theta_map(b, twin)
        for dst in (twin.h, twin.h + 1e-3 * np.eye(len(twin.h))):
            want = float(frobenius(k @ np.conj(b.h) @ k.conj().T - dst))
            assert abs(theta_defect(b.h, dst, k) - want) <= 1e-14 * frobenius(dst)
    stack = np.stack([b.h for b in blocks[:1]] * 2)
    k = theta_map(blocks[0], blocks[3])
    assert theta_defect(stack, stack, k).shape == (2,)


def test_blocks_come_one_pair_at_a_time(default_model):
    """The stream yields each theta-pair's blocks next to each other, the
    lower index first, and with one_per_pair the first of each pair."""
    for P in (P_ALONG_X, [0.5, 0.5, 0.5], [0.7, -0.8, 0.0], [0.31, -0.47, 0.62]):
        ((_, stream),) = hamiltonian.block_stacks(P, default_model)
        order = [(b.index, b.partner) for b in stream]
        pairs = [(i, j) for i, j in order if i <= j]
        assert [x for i, j in pairs for x in ((i, j) if i < j else (i,))] == [
            i for i, _ in order
        ]
        ((_, stream),) = hamiltonian.block_stacks(P, default_model, True)
        assert [b.index for b in stream] == [i for i, _ in pairs]


def test_records_along_and_against_u_equal_each_momentum_alone(default_model):
    """A stack of momenta along +x and -x: the sandwich margins come from
    the stack's own blocks for the first and from H(|P| u) for the second,
    and every record equals that of its momentum alone bit for bit."""
    P = np.array([[0.7, 0, 0], [-0.7, 0, 0], [1.3, 0, 0], [-0.35, 0, 0]], dtype=float)
    for p, got in zip(P, solve_batch(P, default_model)):
        want = solve_fiber(p, default_model)
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert got.residuals == want.residuals
        assert got.ground_pairing == want.ground_pairing
        assert got.sandwich == want.sandwich and got.sandwich is not None


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ground_data_holds_one_block_at_a_time(default_params):
    """48 modes at N_max 2 (Fock dim 1225), P along x: real C4 blocks of
    609 and 616.  ground_data builds and solves one block per pair and
    drops it before the next: measured at 3.4 times the bytes of the
    largest block, where building both blocks before solving them took
    6.3."""
    model = build_model(default_params.replace(n_shells=4, N_max=2, e=0.17))
    largest = max(b.h.nbytes for b in build_H_blocks(P_ALONG_X, model))
    assert largest == 8 * 616**2
    assert _traced_peak(lambda: ground_data(P_ALONG_X, model)) <= 4.5 * largest


def test_solve_fiber_holds_one_theta_pair_at_a_time(default_params):
    """The mid model (Fock dim 325) at P along x: real C4 blocks of 161 and
    164.  One theta-pair is its two blocks and their two complex theta
    maps.  solve_fiber peaks at 1.4 such pairs, where holding every block
    and map at once took 3.0."""
    model = build_model(default_params.replace(N_max=2))
    blocks = build_H_blocks(P_ALONG_X, model)
    assert [b.h.shape[0] for b in blocks] == [161, 164, 164, 161]
    largest = max(b.h.nbytes for b in blocks)
    pair = 2 * largest + 2 * 2 * largest  # a complex map per real block
    del blocks
    assert _traced_peak(lambda: solve_fiber(P_ALONG_X, model)) <= 2 * pair
