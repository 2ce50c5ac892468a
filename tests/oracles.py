"""Oracles that only the tests call: the block lists of H(P) collected from
the stream of :func:`pffiber.hamiltonian.block_stacks` and the dense basis
of a block, the dense free Hamiltonian, and the Kramers pairing of dense
eigenpairs."""

import dataclasses

import numpy as np

from pffiber.hamiltonian import ID2, _as_model, block_stacks, h0_diag
from pffiber.kramers import apply_theta


def build_H_blocks(P, params_or_model, one_per_pair: bool = False) -> list:
    """The blocks of :func:`pffiber.hamiltonian.block_stacks` at P, one
    list of every block of H(P), sorted by index.

    With ``one_per_pair`` only the first block of each theta-pair is kept,
    the blocks whose index is at most their partner's: a prefix of the full
    list, whose ``partner`` indices still refer to it.

    P is one momentum, or a (g, 3) stack: then the result is one list of
    blocks per momentum, built in the stacks of :func:`block_stacks`, and
    each list equals that of its momentum alone bit for bit.  The list
    collects the stream of :func:`block_stacks`, so it holds every block at
    once; the solves read the stream.
    """
    P = np.asarray(P, dtype=float)
    out = [None] * len(P.reshape(-1, 3))
    for index, blocks in block_stacks(P, params_or_model):
        blocks = sorted(
            (b for b in blocks if b.index <= b.partner or not one_per_pair),
            key=lambda b: b.index,
        )
        for at, i in enumerate(index):
            out[i] = [dataclasses.replace(b, h=b.h[at]) for b in blocks]
    return out[0] if P.ndim == 1 else out


def block_basis(block, dim: int) -> np.ndarray:
    """W of an :class:`HBlock` as a dense (2 dim, len(h)) matrix."""
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
