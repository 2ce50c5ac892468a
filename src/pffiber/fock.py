"""Truncated bosonic Fock space in the occupation-number basis.

States are occupation vectors (n_1, ..., n_modes) with total number
sum(n) <= N_max, ordered graded-lexicographically: sectors of fixed total
number come first (so the vacuum is index 0 and sectors are contiguous) and
states within a sector are in ascending lexicographic order.

Truncation convention: creation out of the top sector is compressed to zero
(P a^dagger P).  Annihilation never leaves the truncation, so a_m is exact and
the canonical commutator [a_m, a_m^dagger] = 1 holds on the sub-block of
states with total number <= N_max - 1, and only there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class BasisTooLargeError(ValueError):
    """Raised when the truncated basis would exceed the configured limit."""


def truncated_dim(n_modes: int, n_max: int) -> int:
    """Dimension of the truncation: sum_{n<=N_max} C(n_modes + n - 1, n)."""
    return sum(math.comb(n_modes + n - 1, n) for n in range(n_max + 1))


def _sector_states(n_modes: int, total: int):
    """Occupation vectors with sum = total, ascending lexicographic order."""
    if n_modes == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _sector_states(n_modes - 1, total - first):
            yield (first,) + rest


@dataclass(frozen=True)
class FockBasis:
    """Enumerated occupation basis with total-number cutoff."""

    n_modes: int
    n_max: int
    states: np.ndarray = field(repr=False, compare=False)
    index: dict = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.states.shape[0]

    def totals(self) -> np.ndarray:
        """Total photon number per basis state."""
        return self.states.sum(axis=1)


def enumerate_basis(n_modes: int, n_max: int, max_dim: int = 2_000_000) -> FockBasis:
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
    states = []
    for total in range(n_max + 1):
        states.extend(_sector_states(n_modes, total))
    arr = np.array(states, dtype=np.int64)
    arr.setflags(write=False)
    index = {s: i for i, s in enumerate(states)}
    return FockBasis(n_modes=n_modes, n_max=n_max, states=arr, index=index)


def annihilator(basis: FockBasis, m: int) -> np.ndarray:
    """Dense matrix of a_m: lowers n_m by one with amplitude sqrt(n_m)."""
    if not 0 <= m < basis.n_modes:
        raise IndexError(f"mode index {m} out of range for {basis.n_modes} modes")
    a = np.zeros((basis.dim, basis.dim))
    for j, occ in enumerate(basis.states):
        n_m = occ[m]
        if n_m == 0:
            continue
        target = list(occ)
        target[m] -= 1
        i = basis.index[tuple(target)]
        a[i, j] = math.sqrt(n_m)
    return a


def dgamma_diag(basis: FockBasis, c) -> np.ndarray:
    """Diagonal of the second quantization of per-mode scalars c."""
    c = np.asarray(c, dtype=float)
    if c.shape != (basis.n_modes,):
        raise ValueError(
            f"expected one scalar per mode ({basis.n_modes}), got shape {c.shape}"
        )
    return basis.states @ c


def dgamma(basis: FockBasis, c) -> np.ndarray:
    """Second quantization dGamma(c) as a dense diagonal matrix.

    Specializations: field energy (c = omega), field momentum components
    (c = k_j), number operator (c = 1).
    """
    return np.diag(dgamma_diag(basis, c))


def field_sum(basis: FockBasis, coeffs) -> np.ndarray:
    """sum_m conj(c_m) a_m + c_m a_m^dagger; Hermitian by construction.

    Returns a real matrix when all coefficients are real.
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
    for m in range(basis.n_modes):
        c = coeffs[m]
        if c == 0:
            continue
        a = annihilator(basis, m)
        out += np.conj(c) * a + c * a.T
    return out


def hermiticity_defect(mat: np.ndarray) -> float:
    """max |M - M^dagger| (absolute)."""
    return float(np.max(np.abs(mat - mat.conj().T))) if mat.size else 0.0


def require_hermitian(mat: np.ndarray, rtol: float = 1e-12, what: str = "matrix") -> None:
    """Assert Hermiticity up to rtol * max|M|."""
    scale = float(np.max(np.abs(mat))) if mat.size else 0.0
    if hermiticity_defect(mat) > rtol * max(scale, 1e-300):
        raise ValueError(f"{what} is not Hermitian within tolerance {rtol}")


def hermitize(mat: np.ndarray) -> np.ndarray:
    """Symmetrize (M + M^dagger)/2 to remove floating-point skew."""
    return 0.5 * (mat + mat.conj().T)
