"""The blocks of H(P) come one at a time, or one theta-pair at a time, and
each is solved before the next is built; the kinetic root is a a^dagger with
a = u f^{1/2}, exactly symmetric for a real block."""

import tracemalloc

import numpy as np
import pytest

from pffiber import certificate, hamiltonian
from pffiber.bounds import sandwich_margins
from pffiber.fock import hermitize
from pffiber.hamiltonian import (
    SIGMA,
    build_H,
    build_model,
    kinetic_root,
)
from pffiber.kramers import frobenius, theta_defect
from pffiber.modes import stabilizer
from pffiber.spectral import EnergyCache, ground_data, solve_batch, solve_fiber

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


def test_block_adds_the_field_energy_on_the_diagonal_only(default_model, rng, monkeypatch):
    model = default_model
    build_H_blocks(P_ALONG_X, model)
    setup = model.setups[stabilizer(model.rotations, P_ALONG_X).tobytes()]
    rows = np.concatenate([cols.rep for _, cols in setup[3][0][1]])
    root = _hermitian(rng, (2, rows.size, rows.size), real=True)
    # the C4 blocks are rooted by kinetic_root: it returns this root instead
    monkeypatch.setattr(hamiltonian, "kinetic_root", lambda s, M: root.copy())
    h = hamiltonian._stack_block(np.stack([P_ALONG_X] * 2), model, setup, 0)
    assert isinstance(h, np.ndarray) and h.shape == root.shape
    want = model.params.gamma * root
    off = ~np.eye(rows.size, dtype=bool)
    assert np.array_equal(h[:, off], want[:, off])
    diagonal = np.einsum("...ii->...i", h)
    assert np.array_equal(diagonal, np.einsum("...ii->...i", want) + model.hf[rows])


def _dense(theta) -> np.ndarray:
    """The phased permutation K of theta = (perm, phase) as a matrix."""
    perm, phase = theta
    k = np.zeros((perm.size, perm.size), dtype=complex)
    k[np.arange(perm.size), perm] = phase
    return k


def test_theta_defect_equals_the_dense_products(default_model):
    """On the one W = 1 block of a generic momentum the (perm, phase) of
    theta is that of sigma_2 x 1, and the gather equals the dense
    (s2 x 1) conj(H) (s2 x 1) bit for bit; on the C4 blocks it equals the
    dense K conj(H) K^dagger to rounding."""
    P = [0.31, -0.47, 0.62]
    h = build_H(P, default_model)
    s2 = np.kron(SIGMA[1], np.eye(default_model.dim))
    (b,) = build_H_blocks(P, default_model)
    assert np.array_equal(_dense(b.theta), s2)
    for dst in (h, h + 1e-3 * np.eye(len(h))):
        want = float(frobenius(s2 @ np.conj(h) @ s2 - dst))
        assert theta_defect(h, dst, b.theta) == want
    blocks = build_H_blocks(P_ALONG_X, default_model)
    for b in blocks:
        twin = blocks[b.partner]
        k = _dense(b.theta)
        for dst in (twin.h, twin.h + 1e-3 * np.eye(len(twin.h))):
            want = float(frobenius(k @ np.conj(b.h) @ k.conj().T - dst))
            assert abs(theta_defect(b.h, dst, b.theta) - want) <= 1e-14 * frobenius(dst)
    stack = np.stack([b.h for b in blocks[:1]] * 2)
    assert theta_defect(stack, stack, blocks[0].theta).shape == (2,)


def test_a_map_between_blocks_that_are_no_theta_pair_is_refused(default_model):
    """Blocks 0 and 1 of a C4 momentum are no theta-pair (0 pairs with 3):
    theta maps the columns of one onto none of the other."""
    blocks = build_H_blocks(P_ALONG_X, default_model)
    assert blocks[0].partner == 3
    r = hamiltonian.block_generator(P_ALONG_X, default_model)[0]
    with pytest.raises(RuntimeError, match="no phased permutation"):
        hamiltonian._theta_map(blocks[0].parts, blocks[1].parts, r)
    # and its own partner passes
    perm, phase = hamiltonian._theta_map(blocks[0].parts, blocks[3].parts, r)
    assert np.array_equal(perm, blocks[0].theta[0])


def test_pair_heads_list_the_first_block_of_each_theta_pair(default_model):
    """pair_heads lists the lower index of each theta-pair, in order:
    every block is one head or the partner of one head, and theta maps
    that partner back onto its head."""
    for P in (P_ALONG_X, [0.5, 0.5, 0.5], [0.7, -0.8, 0.0], [0.31, -0.47, 0.62]):
        ((_, setup),) = hamiltonian.setup_stacks(np.reshape(P, (1, 3)), default_model)
        specs = setup[3]
        heads = hamiltonian.pair_heads(setup)
        partners = [specs[i][0] for i in heads]
        assert heads == sorted(heads)
        assert all(i <= t and specs[t][0] == i for i, t in zip(heads, partners))
        covered = heads + [t for i, t in zip(heads, partners) if t != i]
        assert sorted(covered) == list(range(len(specs)))


def test_records_along_and_against_u_equal_each_momentum_alone(default_model):
    """A stack of momenta along +x and -x: every record equals that of its
    momentum alone bit for bit.  Those along +x hold the sandwich margins of
    their own blocks, those along -x none, and
    :func:`pffiber.bounds.sandwich_margins` reads theirs from the record of
    |P| u."""
    P = np.array([[0.7, 0, 0], [-0.7, 0, 0], [1.3, 0, 0], [-0.35, 0, 0]], dtype=float)
    cache = EnergyCache()
    for p, got in zip(P, solve_batch(P, default_model, cache)):
        want = solve_fiber(p, default_model)
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert got.residuals == want.residuals
        assert got.ground_pairing == want.ground_pairing
        assert got.sandwich == want.sandwich and (got.sandwich is None) == (p[0] < 0)
        margins = sandwich_margins(p, default_model, cache)
        assert margins == solve_fiber(np.abs(p), default_model).sandwich
        assert margins is not None


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ground_data_holds_one_block_at_a_time(default_params, monkeypatch):
    """48 modes at N_max 2 (Fock dim 1225), P along x: real C4 blocks of
    609 and 616.  ground_data solves block 0 and drops it before the second
    theta-pair, whose block the diagonal tier proves: measured at 3.3 times
    the bytes of the largest block, where building both blocks before
    solving them took 6.3."""
    _ground_peak(default_params, monkeypatch, "diagonal")


@pytest.mark.parametrize("tier", ["Gram", "none"])
def test_ground_data_holds_one_block_where_the_diagonal_tier_fails(
    default_params, monkeypatch, tier
):
    """The case of :func:`test_ground_data_holds_one_block_at_a_time`.  With
    z made <= 0 on every state, more than ``SCHUR_STATES``, the Schur
    complement refuses the second pair's block without a CG step, and the
    block is built and solved; with A made <= 0, it is built and solved at
    once.  Both peak at 3.4 times the largest block."""
    _ground_peak(default_params, monkeypatch, tier)


def _ground_peak(default_params, monkeypatch, tier):
    """ground_data of :func:`test_ground_data_holds_one_block_at_a_time`
    with the diagonal tier as ``tier`` says, bounded at 4.5 times the
    largest block; checks which tiers ran and how many blocks were
    rooted."""
    model = build_model(default_params.replace(n_shells=4, N_max=2, e=0.17))
    largest = max(b.h.nbytes for b in build_H_blocks(P_ALONG_X, model))
    assert largest == 8 * 616**2
    real = certificate._z_diagonal

    def diagonal(*args):
        positive, z = real(*args)
        if tier == "Gram":
            z[:] = -1.0
        return (np.zeros_like(positive) if tier == "none" else positive), z

    monkeypatch.setattr(certificate, "_z_diagonal", diagonal)
    grams, roots = [], []
    real_block, real_root = certificate.certify_block, hamiltonian.kinetic_root
    monkeypatch.setattr(certificate, "certify_block",
                        lambda gram, *args: grams.append(1) or real_block(gram, *args))
    monkeypatch.setattr(hamiltonian, "kinetic_root",
                        lambda s, M: roots.append(1) or real_root(s, M))
    assert _traced_peak(lambda: ground_data(P_ALONG_X, model)) <= 4.5 * largest
    assert (len(grams), len(roots)) == {"diagonal": (0, 1), "Gram": (1, 2), "none": (0, 2)}[tier]


def test_solve_fiber_holds_one_theta_pair_at_a_time(default_params):
    """The mid model (Fock dim 325) at P along x: real C4 blocks of 161 and
    164.  One theta-pair is its two blocks; theta between them is a phased
    permutation of O(n) bytes.  solve_fiber peaks at 4.05 such pairs (8.1
    blocks, most of it the terms of the sigma.v scatter), bounded with the
    headroom 1.43 that the bound had over the peak when each pair also held
    two complex dense theta maps (8.3 blocks then, against 12)."""
    model = build_model(default_params.replace(N_max=2))
    blocks = build_H_blocks(P_ALONG_X, model)
    assert [b.h.shape[0] for b in blocks] == [161, 164, 164, 161]
    pair = 2 * max(b.h.nbytes for b in blocks)
    del blocks
    assert _traced_peak(lambda: solve_fiber(P_ALONG_X, model)) <= 5.8 * pair


def test_solve_fiber_at_fock_dim_1225_holds_no_dense_theta_map(default_params):
    """The model of :func:`test_ground_data_holds_one_block_at_a_time`:
    solve_fiber peaks at 2.53 pairs of the largest block (15.3 MB), where
    it took 4.03 (24.5 MB) while each pair also held two complex dense
    theta maps.  Bounded with the same headroom 1.43."""
    model = build_model(default_params.replace(n_shells=4, N_max=2, e=0.17))
    pair = 2 * 8 * 616**2
    assert _traced_peak(lambda: solve_fiber(P_ALONG_X, model)) <= 3.6 * pair
