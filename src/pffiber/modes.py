"""Photon-mode discretization inside the ultraviolet ball.

The quantized vector potential is sampled on a finite mode set: a product of
Gauss-Legendre radial shells on ``[k_min, Lambda]`` and an antipodally
symmetric set of directions, with two polarizations per wavevector.  The
quadrature weight of a k-point is ``w = w_radial * r^2 * w_direction`` so that
summing over k-points approximates ``int_{|k|<=Lambda} dk``.  Both
polarization modes at the same k carry that k-point weight.

UNITS: hbar = c = 1 throughout; momenta and masses share energy units.

CONVENTIONS:
- dispersion  omega(k) = sqrt(|k|^2 + m_ph^2)
- polarization dreibein: eps1 = normalize(z_hat x k), eps2 = k_hat x eps1,
  so that (eps1, eps2, k_hat) is right-handed.  Near the poles
  (|z_hat x k| < 1e-9 |k|) the convention is eps1 = x_hat, eps2 = k_hat x x_hat.
- discrete coupling: f_m = e * sqrt(w_m) * eps_m / sqrt(2 (2 pi)^3 omega_m),
  i.e. the quadrature weight is absorbed into the coefficient so the discrete
  annihilators satisfy unit commutators (below the truncation edge).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

TWO_PI_CUBED = (2.0 * math.pi) ** 3

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


DIRECTION_COUNTS = (2, 6, 8, 12)


class GridSpecError(ValueError):
    """Raised for empty or unsupported mode-grid specifications."""


@dataclass(frozen=True)
class ModelParams:
    """Physical and truncation parameters of the fiber model.

    Parameters
    ----------
    e : float
        Coupling strength, >= 0.
    gamma : float
        Kinetic prefactor in (0, 1].  The uniform-gap statements additionally
        need gamma < 1 and m_ph > 0; that is flagged by
        :meth:`gap_hypotheses_met`, not enforced here.
    M : float
        Charge mass, > 0.
    m_ph : float
        Photon mass (infrared regulator), >= 0.
    Lambda : float
        Ultraviolet cutoff on |k|, finite and > 0.
    n_shells : int
        Number of Gauss-Legendre radial nodes on [k_min, Lambda].
    n_dirs : int
        Size of the antipodally symmetric direction set (2, 6, 8 or 12).
    N_max : int
        Total photon-number cutoff of the Fock truncation, >= 0.
    k_min : float
        Inner radius of the radial quadrature, > 0 (keeps k = 0 out of the
        grid, where the dreibein is undefined).
    envelope_width : float
        Optional smooth cutoff taper as a fraction of Lambda; 0 disables it
        and leaves the sharp cutoff realized by grid membership.
    """

    e: float
    gamma: float
    M: float
    m_ph: float
    Lambda: float
    n_shells: int = 2
    n_dirs: int = 6
    N_max: int = 1
    k_min: float = 1e-6
    envelope_width: float = 0.0

    def __post_init__(self):
        for name in ("n_shells", "n_dirs", "N_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")
        if self.e < 0.0:
            raise ValueError(f"coupling e must be >= 0, got {self.e}")
        # M^2 enters every root and bound: it must be a positive normal float
        if not (self.M > 0.0 and sys.float_info.min <= self.M * self.M < math.inf):
            raise ValueError(f"mass M must be > 0 with a normal M^2, got {self.M}")
        if self.m_ph < 0.0:
            raise ValueError(f"photon mass must be >= 0, got {self.m_ph}")
        if not (0.0 < self.Lambda < math.inf):
            raise ValueError(f"Lambda must be finite and > 0, got {self.Lambda}")
        if self.n_shells < 1 or self.n_dirs < 1:
            raise GridSpecError(
                f"empty grid spec: n_shells={self.n_shells}, n_dirs={self.n_dirs}"
            )
        if self.N_max < 0:
            raise ValueError(f"N_max must be >= 0, got {self.N_max}")
        if not 0.0 < self.k_min < self.Lambda:
            raise ValueError("k_min must lie strictly between 0 and Lambda")
        if not 0.0 <= self.envelope_width < 1.0:
            raise ValueError("envelope_width must lie in [0, 1)")

    @functools.cached_property
    def fingerprint(self) -> str:
        """Stable, lossless string key of the parameters (17 significant
        digits), built once per instance: the fields are frozen."""
        items = sorted(
            (f.name, getattr(self, f.name)) for f in dataclasses.fields(self)
        )
        return ";".join(
            f"{k}={v:.17g}" if isinstance(v, float) else f"{k}={v}" for k, v in items
        )

    def gap_hypotheses_met(self) -> bool:
        """Whether the hypotheses of the uniform-gap statements hold."""
        return self.gamma < 1.0 and self.m_ph > 0.0

    def replace(self, **changes) -> "ModelParams":
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True, eq=False)
class ModeSet:
    """Finite photon-mode list: mode m has wavevector ``k[m]``, polarization
    index ``lam[m]`` (1 or 2) and vector ``eps[m]``.  ``weight[m]`` is the
    quadrature weight of its k-point; the two polarization modes at the same
    k share it, so the weights summed over unique k-points
    (``kpoint_weight_sum``) approximate the ball volume.
    """

    k: np.ndarray
    lam: np.ndarray
    eps: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        for arr in (self.k, self.lam, self.eps, self.weight):
            arr.setflags(write=False)

    @property
    def n_modes(self) -> int:
        return len(self.lam)

    def kpoint_weight_sum(self) -> float:
        """Sum of quadrature weights over unique k-points (lambda = 1 rows)."""
        return float(self.weight[self.lam == 1].sum())


def dispersion(k, m_ph: float):
    """omega(k) = sqrt(|k|^2 + m_ph^2); accepts a 3-vector or (n, 3) array."""
    k = np.asarray(k, dtype=float)
    k2 = np.sum(k * k, axis=-1)
    return np.sqrt(k2 + m_ph * m_ph)


def dreibein(k):
    """Real orthonormal right-handed pair (eps1, eps2) perpendicular to k.

    Raises ``ValueError`` at k = 0, where no transverse frame exists.
    """
    k = np.asarray(k, dtype=float)
    norm = np.linalg.norm(k)
    if norm == 0.0:
        raise ValueError("dreibein is undefined at k = 0")
    khat = k / norm
    axis = np.array([0.0, 0.0, 1.0])
    c = np.cross(axis, k)
    cnorm = np.linalg.norm(c)
    if cnorm < 1e-9 * norm:
        # pole convention: k parallel to z picks eps1 along x
        eps1 = np.array([1.0, 0.0, 0.0])
    else:
        eps1 = c / cnorm
    eps2 = np.cross(khat, eps1)
    return eps1, eps2


def direction_set(n_dirs: int):
    """Antipodally symmetric unit directions with weights summing to 4 pi.

    Supported families: 2 (+-z), 6 (octahedron vertices), 8 (cube
    diagonals), 12 (icosahedron vertices).  Each family is a symmetric orbit,
    so uniform weights are used and closure under u -> -u is exact.
    """
    if n_dirs == 2:
        dirs = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
    elif n_dirs == 6:
        dirs = []
        for j in range(3):
            for s in (1.0, -1.0):
                u = [0.0, 0.0, 0.0]
                u[j] = s
                dirs.append(tuple(u))
    elif n_dirs == 8:
        r = 1.0 / math.sqrt(3.0)
        dirs = [
            (sx * r, sy * r, sz * r)
            for sx in (1.0, -1.0)
            for sy in (1.0, -1.0)
            for sz in (1.0, -1.0)
        ]
    elif n_dirs == 12:
        r = 1.0 / math.sqrt(1.0 + _GOLDEN**2)
        dirs = []
        for s1 in (1.0, -1.0):
            for s2 in (1.0, -1.0):
                dirs.append((0.0, s1 * r, s2 * _GOLDEN * r))
                dirs.append((s1 * r, s2 * _GOLDEN * r, 0.0))
                dirs.append((s1 * _GOLDEN * r, 0.0, s2 * r))
    else:
        raise GridSpecError(
            f"unsupported direction count {n_dirs}; choose one of {DIRECTION_COUNTS}"
        )
    weights = np.full(len(dirs), 4.0 * math.pi / len(dirs))
    return np.array(dirs), weights


def gauss_legendre(n: int) -> tuple:
    """The n-point Gauss-Legendre rule on [-1, 1], n >= 1: (nodes
    ascending, weights).

    Newton's method on P_n at the roots in [0, 1] at once, from cos(pi (k -
    1/4) / (n + 1/2)) for the k-th largest, until no root moves by more
    than 4 eps; the rule is symmetric, so they are mirrored.  P_n' = n
    (P_{n-1} - x P_n) / (1 - x^2) and w = 2 / ((1 - x^2) P_n'^2), with 1 -
    x^2 taken as (1 - x)(1 + x), exact near x = 1.  O(n) memory and O(n^2)
    work per step, where a companion matrix takes O(n^2) memory."""
    x = np.cos(math.pi * (np.arange(1, (n + 1) // 2 + 1) - 0.25) / (n + 0.5))
    for _ in range(100):
        below, p = _legendre_pair(n, x)
        step = p * (1.0 - x) * (1.0 + x) / (n * (below - x * p))
        x = x - step
        if np.max(np.abs(step)) <= 4.0 * sys.float_info.epsilon:
            break
    below, p = _legendre_pair(n, x)
    w = 2.0 * (1.0 - x) * (1.0 + x) / (n * (below - x * p)) ** 2
    if n % 2:
        x[-1] = 0.0
    half = n // 2
    nodes = np.concatenate([-x[:half], x[::-1]])
    return nodes, np.concatenate([w[:half], w[::-1]])


def _legendre_pair(n: int, x) -> tuple:
    """(P_{n-1}(x), P_n(x)) by the three-term recurrence (j + 1) P_{j+1} =
    (2j + 1) x P_j - j P_{j-1}."""
    below, p = np.ones_like(x), x
    for j in range(1, n):
        below, p = p, ((2 * j + 1) * x * p - j * below) / (j + 1)
    return below, p


def radial_rule(n_shells: int, k_min: float, Lambda: float):
    """Gauss-Legendre nodes/weights on [k_min, Lambda]."""
    x, w = gauss_legendre(n_shells)
    half = 0.5 * (Lambda - k_min)
    mid = 0.5 * (Lambda + k_min)
    return mid + half * x, half * w


def build_mode_set(params: ModelParams) -> ModeSet:
    """Discretize the ball |k| <= Lambda into photon modes.

    The result is deterministic in ``params``, closed under k -> -k with
    equal weights, and every |k| lies in [k_min, Lambda].
    """
    radii, rad_w = radial_rule(params.n_shells, params.k_min, params.Lambda)
    dirs, dir_w = direction_set(params.n_dirs)
    k, eps, weight = [], [], []
    for r, wr in zip(radii, rad_w):
        for u, wd in zip(dirs, dir_w):
            k += [r * u] * 2
            eps += dreibein(r * u)
            weight += [wr * r * r * wd] * 2
    lam = np.tile([1, 2], len(k) // 2)
    return ModeSet(np.array(k), lam, np.array(eps), np.array(weight))


def _envelope(r: np.ndarray, params: ModelParams) -> np.ndarray:
    """Smooth cutoff taper on [((1-w)Lambda, Lambda]; identically 1 if w = 0."""
    if params.envelope_width == 0.0:
        return np.ones_like(r)
    r0 = (1.0 - params.envelope_width) * params.Lambda
    span = params.envelope_width * params.Lambda
    t = np.clip((r - r0) / span, 0.0, 1.0)
    return np.cos(0.5 * math.pi * t) ** 2


@dataclass(frozen=True, eq=False)
class FormFactorTable:
    """Per-mode coupling coefficients of the discrete vector potential.

    ``f[m]`` is the real 3-vector coefficient of the annihilator of mode m,
    ``f[m] = g[m] * eps[m]`` with scalar prefactor
    ``g[m] = e sqrt(w_m) / sqrt(2 (2 pi)^3 omega_m)`` (times the optional
    smooth envelope).  All entries scale linearly in e.
    """

    f: np.ndarray
    g: np.ndarray
    omega: np.ndarray
    k: np.ndarray

    def __post_init__(self):
        for arr in (self.f, self.g, self.omega, self.k):
            arr.setflags(write=False)


def form_factors(modes: ModeSet, params: ModelParams) -> FormFactorTable:
    """Evaluate the mode couplings f_m and dispersions omega_m."""
    omega = dispersion(modes.k, params.m_ph)
    r = np.linalg.norm(modes.k, axis=1)
    g = params.e * np.sqrt(modes.weight) / np.sqrt(2.0 * TWO_PI_CUBED * omega)
    g = g * _envelope(r, params)
    f = g[:, None] * modes.eps
    return FormFactorTable(f=f, g=g, omega=omega, k=modes.k.copy())


def _signed_permutations() -> np.ndarray:
    """The 48 orthogonal matrices with one entry +-1 per row and column."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            r = np.zeros((3, 3))
            r[range(3), perm] = signs
            out.append(r)
    return np.array(out)


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    return rows[np.lexsort(rows.T[::-1])]


def grid_rotations(table: FormFactorTable) -> np.ndarray:
    """Point group G of the mode grid, as an (|G|, 3, 3) array.

    G holds the signed permutations R of either determinant that map the
    rows (k, g) of the form-factor table onto themselves.  A signed
    permutation moves floats without rounding, so membership is tested by
    exact equality.  For R in G, H(R P) is unitarily equivalent to H(P):
    modes are permuted, each polarization pair turns by an O(2) element and
    the spin turns through SU(2) by the proper rotation det(R) R, because
    the spin is a pseudovector and H depends on sigma.v only through
    (sigma.v)^2.  |G| is 16, 48, 48 and 24 for 2, 6, 8 and 12 directions,
    twice the order 8, 24, 24 and 12 of its det +1 subgroup.
    """
    ref = _sorted_rows(np.column_stack([table.k, table.g]))
    keep = [
        r
        for r in _signed_permutations()
        if np.array_equal(
            _sorted_rows(np.column_stack([table.k @ r.T, table.g])), ref
        )
    ]
    out = np.array(keep)
    out.setflags(write=False)
    return out


def mode_action(rotation, modes: ModeSet):
    """The signed permutation by which an element of G moves the modes.

    Returns (perm, signs) with R k_m = k_perm[m] and
    R eps_m = signs[m] eps_perm[m], or None when some mode has no such
    image.  R is a signed permutation, so the images are exact and
    membership is tested by exact equality, as in :func:`grid_rotations`.
    On the 2- and 6-direction grids every eps is an axis vector, so every
    element of G has a mode action.
    """
    k_img = modes.k @ rotation.T
    eps_img = modes.eps @ rotation.T
    same_k = np.all(k_img[:, None, :] == modes.k[None, :, :], axis=2)
    plus = same_k & np.all(eps_img[:, None, :] == modes.eps[None, :, :], axis=2)
    minus = same_k & np.all(eps_img[:, None, :] == -modes.eps[None, :, :], axis=2)
    hit = plus | minus
    if not np.all(hit.sum(axis=1) == 1):
        return None
    perm = np.argmax(hit, axis=1)
    signs = np.where(plus[np.arange(len(perm)), perm], 1.0, -1.0)
    return perm, signs


def stabilizer(rotations, P) -> np.ndarray:
    """The elements R of ``rotations`` with R P == P exactly."""
    rotations = np.asarray(rotations)
    return rotations[np.all(rotations @ np.asarray(P, dtype=float) == P, axis=1)]


def orbit_representatives(vectors, rotations) -> list:
    """One member of each orbit of ``vectors`` under ``rotations``.

    ``rotations`` must be a group of signed permutations; two vectors share
    an orbit when one is exactly the image of the other under the group.
    The first member of each orbit, in input order, is kept.  The images of
    every vector under the whole group are one ``einsum``; they are exact,
    as each is a signed permutation of the vector's entries.
    """
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    if not vectors:
        return []
    images = np.einsum("gij,vj->vgi", np.asarray(rotations, dtype=float), vectors)
    seen = set()
    out = []
    for v, orbit in zip(vectors, images.tolist()):
        label = min(map(tuple, orbit))
        if label not in seen:
            seen.add(label)
            out.append(v)
    return out


@dataclass(frozen=True, eq=False)
class CouplingNorms:
    """Discrete l2 norms of weighted form factors used by the energy bounds.

    n_half  = || omega^{-1/2} |f| ||
    n_one   = || (1 + omega^{-1/2}) |f| ||
    n_kin   = || |k|^{1/2} |f| ||
    n_curl  = || (1 + omega^{-1/2}) |k| |f| ||

    ``n_half_comp`` holds n_half computed from each single Cartesian
    component of f (index 0 is the component along u = (1,0,0)).
    """

    n_half: float
    n_one: float
    n_kin: float
    n_curl: float
    n_half_comp: np.ndarray


def coupling_norms(table: FormFactorTable) -> CouplingNorms:
    """Norms over the discrete mode set; all scale linearly in e."""
    f2 = np.sum(table.f**2, axis=1)
    fc2 = table.f**2
    om = table.omega
    absk = np.linalg.norm(table.k, axis=1)
    one_fac = (1.0 + om ** (-0.5)) ** 2
    return CouplingNorms(
        n_half=math.sqrt(float(np.sum(f2 / om))),
        n_one=math.sqrt(float(np.sum(one_fac * f2))),
        n_kin=math.sqrt(float(np.sum(absk * f2))),
        n_curl=math.sqrt(float(np.sum(one_fac * absk**2 * f2))),
        n_half_comp=np.sqrt(np.sum(fc2 / om[:, None], axis=0)),
    )


def ball_volume(Lambda: float, k_min: float = 0.0) -> float:
    """Volume of the radial shell [k_min, Lambda] (quadrature reference)."""
    return 4.0 / 3.0 * math.pi * (Lambda**3 - k_min**3)
