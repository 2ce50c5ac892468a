"""E(P) solves the first block of the first theta-pair and proves the first
block of every later pair above the running minimum where it can
(:func:`pffiber.spectral._ground_energies`), with the two tiers of
:func:`pffiber.certificate.certify_stack_block`.  E is checked bit for bit
against the minimum over the blocks of :func:`oracles.build_H_blocks`, each
skipped block against its oracle lowest eigenvalue, each verdict of the
certificate against the Cholesky certificate of :mod:`oracles`, and the
pruned path against a certificate that refuses or fails on chosen
momenta."""

import numpy as np
import pytest

from pffiber import certificate, hamiltonian, spectral
from pffiber.hamiltonian import build_model
from pffiber.spectral import PRUNE_MARGIN, ground_batch

from oracles import build_H_blocks, cholesky_certificate, compare_certificates

DIRECTION_COUNTS = (2, 6, 8, 12)
MOMENTA = np.array([
    [0.7, 0.0, 0.0],  # along x
    [0.5, 0.5, 0.5],  # along (1, 1, 1)
    [0.4, 0.4, 0.0],  # along (1, 1, 0)
    [0.7, -0.8, 0.0],  # on a mirror plane
    [0.31, -0.47, 0.62],  # generic
    [0.3, 0.0, 0.0],
    [1.9, 0.0, 0.0],
])


def _model(default_params, n_dirs, n_max):
    # one radial shell keeps the 12-direction grid at n = 650 for N_max 2
    return build_model(default_params.replace(n_shells=1 if n_dirs == 12 else 2,
                                              n_dirs=n_dirs, N_max=n_max))


def _lowest(blocks) -> list:
    return [float(np.linalg.eigvalsh(b.h)[0]) for b in blocks]


def _queries(monkeypatch):
    """The (P, block index, proven) of each call of the ground path's
    certificate."""
    log = []
    real = certificate.certify_stack_block

    def logged(P, tau, model, setup, i):
        proven = real(P, tau, model, setup, i)
        log.append((P.copy(), i, proven.copy()))
        return proven

    monkeypatch.setattr(spectral, "certify_stack_block", logged)
    return log


@pytest.mark.parametrize("n_max", [1, 2])
@pytest.mark.parametrize("n_dirs", DIRECTION_COUNTS)
def test_ground_energy_is_the_minimum_over_the_oracle_blocks(
    default_params, monkeypatch, n_dirs, n_max
):
    """Bit for bit the smallest lowest eigenvalue of the first block of each
    theta-pair, to rounding that of all blocks; every block skipped lies
    above E by the margin, and every later pair is skipped."""
    skipped, later = _oracle_check(_model(default_params, n_dirs, n_max), monkeypatch)
    assert skipped == later


@pytest.mark.parametrize("n_max", [1, 2])
@pytest.mark.parametrize("M, every", [(1e-6, True), (1e-150, False)])
def test_a_small_M_charges_the_rounding_of_the_certificate(
    default_params, monkeypatch, M, every, n_max
):
    """The rounding of z in the certificate grows as 1/M (``certify_block``).
    At M = 1e-6 it raises tau by at most about 1e-8, and every later pair
    is still proven; at M = 1e-150 it exceeds any gap, so no block is
    proven and each pair is solved.  E is the oracle minimum at both."""
    model = build_model(default_params.replace(M=M, N_max=n_max))
    skipped, later = _oracle_check(model, monkeypatch)
    assert later > 0 and skipped == (later if every else 0)


def _oracle_check(model, monkeypatch) -> tuple:
    """(skipped, later): :func:`ground_batch` of ``MOMENTA`` checked against
    the oracle blocks as in
    :func:`test_ground_energy_is_the_minimum_over_the_oracle_blocks`, and
    every verdict of the certificate against the Cholesky oracle; how many
    first blocks of later theta-pairs it skipped, and how many there
    are."""
    verdicts = compare_certificates(monkeypatch)
    log = _queries(monkeypatch)
    got = ground_batch(MOMENTA, model)
    oracle = build_H_blocks(MOMENTA, model)
    for e, blocks in zip(got, oracle):
        lowest = _lowest(blocks)
        first = [lam for lam, b in zip(lowest, blocks) if b.index <= b.partner]
        assert e == min(first)
        scale = max(abs(np.linalg.eigvalsh(b.h)).max() for b in blocks)
        assert abs(e - min(lowest)) <= 1e-12 * scale
    row = {tuple(p): at for at, p in enumerate(MOMENTA)}
    skipped = 0
    for P, i, proven in log:
        for p in P[proven]:
            at = row[tuple(p)]
            (lam,) = _lowest([b for b in oracle[at] if b.index == i])
            assert lam > got[at] + PRUNE_MARGIN - 1e-10
            skipped += 1
    for schur, cholesky in verdicts:
        assert schur.tolist() == cholesky.tolist()
    pairs = sum(b.index <= b.partner for blocks in oracle for b in blocks)
    return skipped, pairs - len(MOMENTA)


def test_a_mixed_stack_proves_by_each_tier(default_params, monkeypatch):
    """48 modes at N_max 1: 0.3x and 1.9x share one stack.  The first block
    of the second theta-pair has A > 0 on every row at both; its diagonal
    of Z - s^dagger s is positive at 0.3x and <= 0 on 12 states at 1.9x,
    where the Schur complement on those 12 states proves it, as the
    Cholesky oracle does.  No second block is rooted, and E is that of each
    momentum alone."""
    model = build_model(default_params.replace(n_shells=4, N_max=1))
    P = np.array([[0.3, 0.0, 0.0], [1.9, 0.0, 0.0]])
    diagonals, grams = [], []
    real_diagonal, real_block = certificate._z_diagonal, certificate.certify_block

    def diagonal(*args):
        diagonals.append(real_diagonal(*args))
        return diagonals[-1]

    def block(gram, z):
        grams.append(len(z))
        return real_block(gram, z)

    verdicts = compare_certificates(monkeypatch)
    monkeypatch.setattr(certificate, "_z_diagonal", diagonal)
    monkeypatch.setattr(certificate, "certify_block", block)
    roots = []
    real_root = hamiltonian.kinetic_root
    monkeypatch.setattr(hamiltonian, "kinetic_root",
                        lambda s, M: roots.append(len(s)) or real_root(s, M))
    got = ground_batch(P, model)
    # the diagonal tier of block 1, once for both tiers; block 0 is solved
    # without a certificate
    assert [len(pos) for pos, _ in diagonals] == [2]
    positive, z = diagonals[0]
    assert positive.all()
    assert np.count_nonzero(z[0] <= 0) == 0 and np.count_nonzero(z[1] <= 0) == 12
    assert grams == [1] and roots == [2]
    assert [(s.tolist(), c.tolist()) for s, c in verdicts] == [([True, True], [True, True])]
    monkeypatch.undo()
    assert got == [spectral.ground_data(p, model) for p in P]
    for e, blocks in zip(got, build_H_blocks(P, model)):
        assert e == min(_lowest(blocks[:2]))


@pytest.mark.parametrize("refuse", ["both", "some"])
def test_a_refused_certificate_solves_the_block_with_the_same_E(
    default_params, monkeypatch, refuse
):
    """Negative control.  A certificate that refuses every block solves one
    block per theta-pair, and one that refuses at chosen momenta solves the
    later block at those alone, as a sub-stack; E is the same bit for bit.

    ``some``: z is made -1e-3 on one state at the even momenta of the
    stack, so that the diagonal tier fails there and the Schur complement
    tries them, and it is made to fail at the first of them: that momentum
    alone is rooted and solved, the others are proven."""
    model = build_model(default_params.replace(n_shells=4, N_max=1))
    P = np.array([[t, 0.0, 0.0] for t in (0.3, 1.0, 1.9, 3.0)])
    want = ground_batch(P, model)
    real_diagonal, real_block = certificate._z_diagonal, certificate.certify_block

    def diagonal(d, tau, *args):
        positive, z = real_diagonal(d, tau, *args)
        if refuse == "both":
            return np.zeros_like(positive), z
        if len(tau) == len(P):
            z[::2, 0] = -1e-3
        return positive, z

    def block(gram, *args):
        proven = real_block(gram, *args)
        proven[0] = False
        return proven

    monkeypatch.setattr(certificate, "_z_diagonal", diagonal)
    monkeypatch.setattr(certificate, "certify_block", block)
    solved = []
    real_eig = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda h: solved.append(len(h)) or real_eig(h))
    got = ground_batch(P, model)
    monkeypatch.undo()
    assert got == want
    # C4 along x: theta-pairs 0-3 and 1-2
    assert solved == ([4, 4] if refuse == "both" else [4, 1])


@pytest.mark.parametrize("dtype", [float, complex])
def test_the_diagonal_tier_proves_only_what_the_cholesky_proves(dtype):
    """On random blocks near and far from their lowest eigenvalue: where A
    > 0 and the diagonal of Z - s^dagger s is positive on every row, the
    Cholesky certificate of :mod:`oracles` proves the block too, and the
    level lies below the lowest eigenvalue."""
    rng = np.random.default_rng(7)
    gamma, M = 0.5, 1.0
    proven = 0
    for strength in (0.02, 0.3, 3.0):
        s = strength * rng.standard_normal((16, 30, 30))
        if dtype is complex:
            s = s + 1j * strength * rng.standard_normal((16, 30, 30))
        d = np.abs(rng.standard_normal((16, 30)))
        d[:, 0] = 0.0
        gram = np.conj(s.swapaxes(-1, -2)) @ s
        y, u = np.linalg.eigh(gram)
        root = (u * np.sqrt(y + M * M)[..., None, :]) @ np.conj(u.swapaxes(-1, -2))
        lam = np.linalg.eigvalsh(gamma * root + d[..., None] * np.eye(30))[:, 0]
        c2 = np.full(16, 0.7**2 + M * M)
        for shift in (-1.0, -0.1, -1e-3, -1e-6, 0.0, 1e-3):
            tau = lam + shift
            positive, z = certificate._z_diagonal(d, tau, gamma, M, c2)
            diagonal = positive & np.all(z > 0.0, axis=1)
            cholesky = cholesky_certificate(gram.copy(), d, tau, gamma, M, c2)
            assert not (diagonal & ~cholesky).any()
            assert (lam[diagonal] > tau[diagonal]).all()
            proven += np.count_nonzero(diagonal)
    assert proven > 0
