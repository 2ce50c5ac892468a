"""Oracles that only the tests call: every block of H(P), partners
included, each rooted from its own s (:func:`block_stacks`) and kept with
its set-up entry (:class:`Block`), the block lists collected from them and
the dense basis of a block, a block rooted and solved on its own, the
dense free Hamiltonian, the dense annihilator of one mode, theta applied
column by column, the Kramers pairing of dense eigenpairs, and the operator certificate h > tau by the Gram
product s^dagger s and a Cholesky of Z, against which the Schur
complement of :func:`pffiber.certificate.certify_block` is checked."""

from typing import NamedTuple

import numpy as np

from pffiber import certificate, spectral
from pffiber.certificate import EPS, Gram, _z_diagonal
from pffiber.hamiltonian import (
    ID2,
    _as_model,
    _block_s,
    _dagger,
    _reps,
    _spin_frame,
    _stack_block,
    h0_diag,
    setup_stacks,
)


class Block(NamedTuple):
    """A block stack ``h`` of :func:`pffiber.hamiltonian._stack_block` with
    its set-up entry (partner, parts, theta), its index in the set-up and
    the orbit representatives ``rows`` of its columns."""

    h: np.ndarray
    partner: int
    parts: tuple
    theta: tuple
    index: int
    rows: np.ndarray


def _block(P, model, setup, i: int) -> Block:
    """Block i of ``setup`` for the (g, 3) P as a :class:`Block`."""
    partner, parts, theta = setup[3][i]
    return Block(_stack_block(P, model, setup, i), partner, parts, theta, i, _reps(parts))


def block_stacks(P, params_or_model):
    """(index, blocks) over the stacks of
    :func:`pffiber.hamiltonian.setup_stacks` of the (g, 3) P: ``blocks``
    lists every block of the set-up, in index order, each a stack along
    ``index`` built by :func:`pffiber.hamiltonian._stack_block` from its
    own s_i, as a :class:`Block`.  The solves build only the head of each
    theta-pair; here a partner is assembled and rooted too, so that the
    tests can hold the head's values against it."""
    model = _as_model(params_or_model)
    P = np.asarray(P, dtype=float).reshape(-1, 3)
    for index, setup in setup_stacks(P, model):
        yield index, setup_blocks(P[index], model, setup)


def setup_blocks(P, model, setup) -> list:
    """Every block of ``setup`` for the (g, 3) P, in index order, each
    rooted from its own s_i by :func:`pffiber.hamiltonian._stack_block`."""
    return [_block(P, model, setup, i) for i in range(len(setup[3]))]


def build_H_blocks(P, params_or_model, one_per_pair: bool = False) -> list:
    """The blocks of :func:`block_stacks` at P, one list of every block of
    H(P), sorted by index.

    With ``one_per_pair`` only the first block of each theta-pair is kept,
    the blocks whose index is at most their partner's: a prefix of the full
    list, whose ``partner`` indices still refer to it.

    P is one momentum, or a (g, 3) stack: then the result is one list of
    blocks per momentum, built in the stacks of :func:`block_stacks`, and
    each list equals that of its momentum alone bit for bit.
    """
    P = np.asarray(P, dtype=float)
    out = [None] * len(P.reshape(-1, 3))
    for index, blocks in block_stacks(P, params_or_model):
        blocks = [b for b in blocks if b.index <= b.partner or not one_per_pair]
        for at, i in enumerate(index):
            out[i] = [b._replace(h=b.h[at]) for b in blocks]
    return out[0] if P.ndim == 1 else out


def block_basis(block, dim: int) -> np.ndarray:
    """W of a :class:`Block` as a dense (2 dim, len(h)) matrix."""
    out = []
    for chi, cols in block.parts:
        f = np.zeros((dim, cols.rep.size), dtype=complex)
        np.add.at(f, (np.arange(dim)[:, None], cols.col), cols.w)
        out.append(np.kron(chi[:, None], f))
    return np.hstack(out)


def build_H0(P, params_or_model) -> np.ndarray:
    """Free fiber Hamiltonian gamma sqrt((P - P_f)^2 + M^2) + H_f, diagonal."""
    model = _as_model(params_or_model)
    return np.kron(ID2, np.diag(h0_diag(P, model)))


def annihilator(basis, m: int) -> np.ndarray:
    """Dense matrix of a_m: lowers n_m by one with amplitude sqrt(n_m)."""
    if not 0 <= m < basis.n_modes:
        raise IndexError(f"mode index {m} out of range for {basis.n_modes} modes")
    rows, cols, modes, amps = basis.ladder
    sel = modes == m
    a = np.zeros((basis.dim, basis.dim))
    a[rows[sel], cols[sel]] = amps[sel]
    return a


def _theta(x: np.ndarray) -> np.ndarray:
    """(sigma_2 tensor 1) conj(x), column by column."""
    half = x.shape[0] // 2
    out = np.empty(x.shape, dtype=complex)
    conj = np.conj(x)
    out[:half] = -1.0j * conj[half:]
    out[half:] = 1.0j * conj[:half]
    return out


def apply_theta(psi: np.ndarray) -> np.ndarray:
    """theta psi = (sigma_2 tensor 1) conj(psi); antiunitary and isometric."""
    psi = np.asarray(psi)
    if psi.ndim != 1 or psi.shape[0] % 2:
        raise ValueError("state must be a vector on C^2 tensor Fock")
    return _theta(psi)


def theta_pairing_residuals(h: np.ndarray, vals, vecs, h_norm=None):
    """For each eigenpair: eigen-residual of theta v and the overlap <v, theta v>.

    Both vanish for a theta-commuting Hamiltonian, forcing even
    multiplicities.
    """
    if h_norm is None:
        h_norm = float(np.linalg.norm(h, ord=2))
    out = []
    for lam, v in zip(vals, vecs.T):
        tv = apply_theta(v)
        res = float(np.linalg.norm(h @ tv - lam * tv)) / max(h_norm, 1e-300)
        overlap = abs(complex(np.vdot(v, tv)))
        out.append((res, overlap))
    return out


def cholesky_stack_block(P, tau, model, setup, i: int) -> np.ndarray:
    """:func:`pffiber.certificate.certify_stack_block` by the Cholesky
    certificate: the diagonal tier, then s_i built (:func:`_block_s`) and
    its Gram product factored by :func:`cholesky_certificate`."""
    _, _, coefs, specs = setup
    gamma, M = model.params.gamma, model.params.M
    c2 = np.sum(P * P, axis=1) + M * M
    d = model.hf[np.concatenate([cols.rep for _, cols in specs[i][1]])]
    positive, z = _z_diagonal(d, tau, gamma, M, c2)
    proven = positive & np.all(z > 0.0, axis=1)
    at = np.flatnonzero(positive & ~proven)
    if at.size:
        s = _block_s(P[at], model, _spin_frame(P[at], model, coefs), setup, i)
        gram = _dagger(s) @ s
        del s  # before the two copies that the Cholesky makes
        proven[at] = cholesky_certificate(gram, d, tau[at], gamma, M, c2[at])
    return proven


def cholesky_certificate(gram, d, tau, gamma: float, M: float, c2) -> np.ndarray:
    """Whether h = gamma sqrt(Y) + diag(d) > tau is proven, Y = s^dagger s
    + M^2, for each of a (g, n, n) stack ``gram`` of the Gram products
    s^dagger s, (g, n) d and (g,) tau and c^2: one Cholesky of Z =
    s^dagger s + diag(z) each (see :func:`pffiber.certificate.certify_block`
    for z).  The diagonal of ``gram`` is overwritten, so that it becomes Z.

    Rounding: a factor R of the computed Z has R^dagger R = Z + E with
    |E_ij| <= (n + 1) eps sqrt(Z_ii Z_jj) to first order (Higham, *Accuracy
    and Stability of Numerical Algorithms*, thm. 10.3), so ||E|| <= (n + 1)
    eps trace Z; the product s^dagger s errs by n eps trace(s^dagger s) in
    the same way.  tau is raised by gamma eta / (2M), eta = 3 (n + 1) eps
    (trace(s^dagger s) + n (M^2 + c^2)), on top of the rounding of z."""
    n = gram.shape[-1]
    diagonal = np.einsum("...ii->...i", gram)
    eta = 3.0 * (n + 1) * EPS * (np.sum(diagonal.real, axis=1) + n * (c2 + M * M))
    positive, z = _z_diagonal(d, tau + gamma * eta / (2.0 * M), gamma, M, c2)
    diagonal += z
    return positive & cholesky_succeeds(gram)


def cholesky_succeeds(z: np.ndarray) -> np.ndarray:
    """Whether numpy's Cholesky factors each matrix of the (g, n, n) stack
    z, whose entries must all be finite: numpy returns a factor of NaN or
    inf, without raising, for a matrix that holds one.  A stacked call, and
    one call per matrix only when it fails."""
    finite = np.all(np.isfinite(z), axis=(-2, -1))
    try:
        np.linalg.cholesky(z)
        return finite
    except np.linalg.LinAlgError:
        if len(z) <= 1:
            return np.zeros(len(z), dtype=bool)
        return np.concatenate([cholesky_succeeds(m[None]) for m in z])


def dense_gram(s) -> Gram:
    """The :class:`pffiber.hamiltonian.Gram` of a (g, n, n) stack of dense
    matrices s: two products, each sum of n terms."""
    s = np.asarray(s)

    def apply(x, at, absolute=False):
        m = np.abs(s[at]) if absolute else s[at]
        # rows of x are vectors: s x is x s^T, and s^dagger y is y conj(s)
        return (x @ m.swapaxes(-1, -2)) @ np.conj(m)

    return Gram(apply, 2 * s.shape[-1] + 8, np.isrealobj(s))


def compare_certificates(patch) -> list:
    """Make every call of the certificate of a block, from the Delta trials
    (:func:`pffiber.certificate.certify_above`) and from the ground path
    (:func:`pffiber.spectral._ground_energies`), also run
    :func:`cholesky_stack_block`; returns the list that collects the
    (Schur, Cholesky) verdicts of each call.  ``patch`` is a pytest
    monkeypatch."""
    log = []
    real = certificate.certify_stack_block

    def both(P, tau, model, setup, i):
        proven = real(P, tau, model, setup, i)
        log.append((proven.copy(), cholesky_stack_block(P, tau, model, setup, i)))
        return proven

    patch.setattr(certificate, "certify_stack_block", both)
    patch.setattr(spectral, "certify_stack_block", both)
    return log


def solve_block(P, model, setup, i: int, diagonals=None) -> dict:
    """Block i of ``setup`` at the (g, 3) P solved on its own: s_i
    assembled and rooted (:func:`pffiber.hamiltonian._stack_block`, the
    ground path's builder), then one ``eigh`` per momentum.  Returns the
    eigenvalues, the worst residual of the ``spectral.N_LOW_VECTORS``
    lowest eigenpairs and, with the (g, dim) (L_-, L_+) ``diagonals``,
    the sandwich margins min eig(h - L_-) and min eig(L_+ - h), each one
    row per momentum."""
    block = _block(P, model, setup, i)
    k = spectral.N_LOW_VECTORS
    out = {"vals": [], "eigenpair": [], "margins": []}
    for at, h in enumerate(block.h):
        vals, vecs = np.linalg.eigh(h)
        x = vecs[:, :k]
        out["vals"].append(vals)
        out["eigenpair"].append(np.max(np.linalg.norm(h @ x - x * vals[:k], axis=0)))
        if diagonals is not None:
            lm, lp = (np.diag(d[at, block.rows]) for d in diagonals)
            out["margins"].append((np.linalg.eigvalsh(h - lm)[0],
                                   np.linalg.eigvalsh(lp - h)[0]))
    return {key: np.array(v) for key, v in out.items()}
