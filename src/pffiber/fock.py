"""Truncated bosonic Fock space in the occupation-number basis.

States are occupation vectors (n_1, ..., n_modes) with total number
sum(n) <= N_max, ordered graded-lexicographically: sectors of fixed total
number come first (so the vacuum is index 0 and sectors are contiguous) and
states within a sector are in ascending lexicographic order.  A sector is
enumerated as the multisets of its mode indices, each counted into its
occupation row, then sorted.

Truncation convention: creation out of the top sector is compressed to zero
(P a^dagger P).  Annihilation never leaves the truncation, so a_m is exact and
the canonical commutator [a_m, a_m^dagger] = 1 holds on the sub-block of
states with total number <= N_max - 1, and only there.

The ladder structure is computed once per basis, in ``FockBasis.ladder``:
for every state j and mode m with n_m(j) > 0 it holds the index i of the
state with one photon fewer in mode m and the amplitude sqrt(n_m(j)), so
a_m e_j = sqrt(n_m(j)) e_i.  The lowered states are located all at once by
a binary search over the basis rows.  Every field operator is one scatter
from this table: ``field_sum`` writes its (i, j) and (j, i) entries directly,
with no per-mode matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np


MAX_BASIS_DIM = 2_000_000


class BasisTooLargeError(ValueError):
    """Raised when the truncated basis would exceed the configured limit."""


def truncated_dim(n_modes: int, n_max: int) -> int:
    """Dimension of the truncation: sum_{n<=N_max} C(n_modes + n - 1, n)."""
    return sum(math.comb(n_modes + n - 1, n) for n in range(n_max + 1))


def _sector_states(n_modes: int, total: int) -> np.ndarray:
    """Occupation vectors with sum = total, ascending lexicographic order.

    Each multiset of ``total`` mode indices from
    ``itertools.combinations_with_replacement`` is one state; its row is
    counted by one bincount, and a lexsort puts the rows in order.
    """
    count = math.comb(n_modes + total - 1, total)
    combos = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations_with_replacement(range(n_modes), total)
        ),
        dtype=np.int64,
        count=count * total,
    ).reshape(count, total)
    flat = (np.arange(count)[:, None] * n_modes + combos).ravel()
    rows = np.bincount(flat, minlength=count * n_modes).reshape(count, n_modes)
    return rows[np.lexsort(rows.T[::-1])]


@dataclass(frozen=True)
class FockBasis:
    """Enumerated occupation basis with total-number cutoff."""

    n_modes: int
    n_max: int
    states: np.ndarray = field(repr=False, compare=False)
    # (rows, cols, modes, amps): a_m e_j = amp e_i for each entry (i, j, m, amp)
    ladder: tuple = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.states.shape[0]

    def totals(self) -> np.ndarray:
        """Total photon number per basis state."""
        return self.states.sum(axis=1)


def _row_keys(states: np.ndarray) -> np.ndarray:
    """One sortable scalar per state: (total, n_1, ..., n_modes) as raw bytes.

    Big-endian unsigned integers compare bytewise in numeric order, so the
    keys sort in the graded-lexicographic order of the basis.
    """
    rows = np.column_stack([states.sum(axis=1), states]).astype(">u8", order="C")
    return rows.view(np.dtype((np.void, rows.shape[1] * 8))).ravel()


def _ladder_table(states: np.ndarray) -> tuple:
    """(rows, cols, modes, amps) of every nonzero entry of the annihilators."""
    cols, modes = np.nonzero(states)
    lowered = states[cols]
    lowered[np.arange(cols.size), modes] -= 1
    rows = np.searchsorted(_row_keys(states), _row_keys(lowered))
    # a key past the last row must fail the check below, not the indexing
    rows = np.minimum(rows, states.shape[0] - 1)
    if not np.array_equal(states[rows], lowered):
        raise RuntimeError("a lowered state is missing from the basis")
    amps = np.sqrt(states[cols, modes].astype(float))
    table = (rows, cols, modes, amps)
    for arr in table:
        arr.setflags(write=False)
    return table


def enumerate_basis(
    n_modes: int, n_max: int, max_dim: int = MAX_BASIS_DIM
) -> FockBasis:
    """Build the truncated occupation basis.

    Raises ``BasisTooLargeError`` if the dimension would exceed ``max_dim``.
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    dim = truncated_dim(n_modes, n_max)
    if dim > max_dim:
        raise BasisTooLargeError(
            f"truncated dimension {dim} exceeds the configured limit {max_dim}"
        )
    arr = np.concatenate(
        [_sector_states(n_modes, total) for total in range(n_max + 1)]
    )
    arr.setflags(write=False)
    return FockBasis(
        n_modes=n_modes, n_max=n_max, states=arr, ladder=_ladder_table(arr)
    )


def dgamma_diag(basis: FockBasis, c) -> np.ndarray:
    """Diagonal of the second quantization of per-mode scalars c."""
    c = np.asarray(c, dtype=float)
    if c.shape != (basis.n_modes,):
        raise ValueError(
            f"expected one scalar per mode ({basis.n_modes}), got shape {c.shape}"
        )
    return basis.states @ c


def field_sum(basis: FockBasis, coeffs) -> np.ndarray:
    """sum_m conj(c_m) a_m + c_m a_m^dagger; Hermitian by construction.

    Returns a real matrix when all coefficients are real.  One scatter from
    ``basis.ladder``: an (i, j) pair belongs to one mode only, and i has one
    photon fewer than j, so no entry is written twice.
    """
    coeffs = np.asarray(coeffs)
    if coeffs.shape != (basis.n_modes,):
        raise ValueError(
            f"expected one coefficient per mode ({basis.n_modes}), got shape {coeffs.shape}"
        )
    real = np.isrealobj(coeffs) or np.allclose(coeffs.imag, 0.0)
    dtype = float if real else complex
    out = np.zeros((basis.dim, basis.dim), dtype=dtype)
    if real:
        coeffs = coeffs.real
    rows, cols, modes, amps = basis.ladder
    # adding into zeros turns a -0.0 product into 0.0, as a sum over modes does
    out[rows, cols] += np.conj(coeffs[modes]) * amps
    out[cols, rows] += coeffs[modes] * amps
    return out


def hermiticity_defect(mat: np.ndarray):
    """max |M - M^dagger| (absolute); for a (k, n, n) stack, one per matrix."""
    defect = np.max(
        np.abs(mat - mat.conj().swapaxes(-1, -2)), axis=(-2, -1), initial=0.0
    )
    return float(defect) if mat.ndim == 2 else defect


def frobenius(h: np.ndarray):
    """||H||_F of a matrix, or of each matrix of a (g, n, n) stack, summed
    in place by ``einsum``: no temporary of the size of h."""
    parts = (h.real, h.imag) if np.iscomplexobj(h) else (h,)
    return np.sqrt(sum(np.einsum("...ij,...ij->...", x, x) for x in parts))


def require_hermitian(mat: np.ndarray, rtol: float = 1e-12, what: str = "matrix") -> None:
    """Assert Hermiticity up to rtol * max|M|.  On a (k, n, n) stack each
    matrix is held to its own max|M|, so a large matrix cannot hide the skew
    of a small one."""
    scale = np.max(np.abs(mat), axis=(-2, -1), initial=0.0)
    if np.any(hermiticity_defect(mat) > rtol * np.maximum(scale, 1e-300)):
        raise ValueError(f"{what} is not Hermitian within tolerance {rtol}")


def hermitize(mat: np.ndarray) -> np.ndarray:
    """Symmetrize (M + M^dagger)/2 to remove floating-point skew; matrix by
    matrix on a (k, n, n) stack."""
    return 0.5 * (mat + mat.conj().swapaxes(-1, -2))
