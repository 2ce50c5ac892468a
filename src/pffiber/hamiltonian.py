"""Assembly of the fiber Hamiltonians on (spin space) x (truncated Fock space).

Central objects:

- v_j(P)   = P_j - dGamma(k_j) + A(0)_j            (Fock space, real symmetric)
- s(P)     = sigma . v                              (C^2 tensor Fock)
- T(P)     = s(P)^2                                 (C^2 tensor Fock)
- D(P)     = alpha . v + M beta                     (C^4 tensor Fock)
- H(P)     = gamma f(s(P)) + H_f,  f(x) = sqrt(x^2 + M^2)   (C^2 tensor Fock)
- H_SL(P)  = gamma sqrt(sum_j v_j^2 + M^2) + H_f    (spinless, Fock space)
- H_0(P)   = gamma sqrt((P - P_f)^2 + M^2) + H_f    (free, diagonal)

The functions named after them build them as dense matrices.  These are the
oracles; the blocks below, the solve path of every momentum, never form a
dense Fock operator.

Kronecker convention: spin index slow, Fock index fast, i.e.
``np.kron(spin_matrix, fock_matrix)``.

The blocks of :func:`setup_stacks` give the same spectrum as ``build_H``
from smaller matrices. An element R of the grid's point group that fixes P
and has a mode action commutes with H(P) through U(R) = D(det(R) R) x
Gamma(R): D turns the spin by the proper part of R (the spin is a
pseudovector), and Gamma(R) is the signed permutation of occupation
states. A rotation commutes with sigma.v; a mirror anticommutes with it,
which H tolerates because f is even; without one, R = 1.  H(P) is
assembled on each eigenspace of U, which is built once per (grid,
stabilizer) from Fourier sums over the Gamma-orbits and kept in the grid's
store (see :class:`FiberModel`) as a per-state table (:class:`Columns`).
Every v_k is a diagonal plus sum_m f_{m,k} (a_m + a_m^dagger), so sigma.v
on a block is one scatter over the ladder table of the basis: O(dim + nnz)
entries, each spread over the at most two columns its Fock state lies in.
Time reversal theta commutes with U (Gamma is real and D is in SU(2)), so
it maps the eigenspace of lambda onto that of conj(lambda): the blocks
come in theta-pairs with equal spectra, and theta maps the columns of each
onto those of its partner by a phased permutation that the set-up lists
beside the block's partner and columns.  Only the first block of a pair,
its head (:func:`pair_heads`), is built; :func:`theta_pair` builds it and
checks theta on sigma.v, and :func:`theta_pairing` checks it on a vector.
``build_H`` stays the dense reference.  Momenta that share a stabilizer
differ only in the diagonal of sigma.v, so ``setup_stacks`` groups them in
stacks, bounded by ``STACK_BYTES``, and each block of a stack is built as
one, a block at a time, so that a solve drops each block before the next
is built.

Time reversal has theta^2 = -1, so H(P) has no real form in general.  But
when the stabilizer of P also holds a mirror sigma that inverts R about an
axis in its plane, the antiunitary J = theta U(sigma) commutes with H(P)
and with sigma.v, maps every eigenspace of U(R) onto itself, and squares
to +1 (theta^2 = U(sigma)^2 = -1, and theta commutes with U).  On its fixed
vectors each rotation block is real symmetric.  J moves the Fourier
columns as a monomial matrix, so a J-fixed column combines at most two of
them.  A mirror-only stabilizer has no real block (J swaps its two
blocks), and a generic P none at all.

Every block of H(P) is gamma sqrt(s_i^dagger s_i + M^2) + H_f, where
s_i = W_t^dagger (sigma.v) W_i maps block i into block t.  Under a rotation
t = i and s_i is Hermitian: ``kinetic_root`` takes f of its eigenvalues.
Under a mirror t is the theta-partner of i: ``_svd_root`` takes f of its
singular values.  So T(P) is never formed on the way to H (``build_H``
roots s(P) itself).  Two square roots of a PSD matrix stay beside them:
``op_sqrt_eig``, the generic spectral reference (spinless H_SL, interaction
norm, monotonicity suite), and the independent cross-check
``op_sqrt_quad``, the resolvent-integral quadrature evaluating
(1/pi) int_0^inf dt t^{-1/2} a^2 / (t + a^2) via the substitution
t = scale * s / (1 - s), s = sin^2(theta), which maps the integral onto a
smooth integrand on [0, pi/2] handled by doubled Gauss-Legendre panels.

Every assembly function is pure; matrices are freshly allocated per call,
and what the grid's store holds is a pure function of its key.  LAPACK is
reached through ``numpy.linalg`` alone.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .blas import threads
from .fock import (
    FockBasis,
    dgamma_diag,
    enumerate_basis,
    field_sum,
    frobenius,
    hermitize,
    require_hermitian,
)
from .modes import (
    CouplingNorms,
    FormFactorTable,
    ModelParams,
    ModeSet,
    build_mode_set,
    coupling_norms,
    form_factors,
    gauss_legendre,
    grid_rotations,
    mode_action,
    stabilizer,
)

SIGMA = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)

# standard Dirac representation: alpha_j = offdiag(sigma_j, sigma_j),
# beta = diag(1, 1, -1, -1)
ALPHA = np.zeros((3, 4, 4), dtype=complex)
for _j in range(3):
    ALPHA[_j, :2, 2:] = SIGMA[_j]
    ALPHA[_j, 2:, :2] = SIGMA[_j]
BETA = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)

ID2 = np.eye(2)

DEFAULT_PSD_TOL = 1e-10


class NotPositiveSemidefiniteError(ValueError):
    """Raised when a matrix fed to a square root is negative beyond tolerance."""


class QuadratureNotConverged(RuntimeError):
    """Raised when the resolvent-integral square root stalls above tolerance."""


@dataclass(frozen=True, eq=False)
class FiberModel:
    """A mode grid and a coupling on it.  The grid is ``modes``, ``basis``,
    ``pf``, ``hf``, ``rotations`` and ``setups``, the store of
    :func:`setup_stacks`: models that differ only in e, gamma or M share
    these objects.  ``table``, ``norms``, ``A`` and ``B`` carry e.

    The dense A(0) and B(0) are built on first access and then kept: only
    the dense oracles read them (``build_H``, ``build_T``, the verify
    checks), never the symmetry blocks."""

    params: ModelParams
    modes: ModeSet
    table: FormFactorTable
    norms: CouplingNorms
    basis: FockBasis
    pf: np.ndarray  # (dim, 3) field-momentum diagonals
    hf: np.ndarray  # (dim,) field-energy diagonal
    rotations: np.ndarray  # (|G|, 3, 3) point group of the mode grid
    setups: dict = field(repr=False)  # stabilizer -> _symmetry_setup

    @property
    def dim(self) -> int:
        return self.basis.dim

    @functools.cached_property
    def A(self) -> tuple:
        """Three real symmetric Fock matrices, :func:`build_A0`."""
        return tuple(build_A0(self.basis, self.table))

    @functools.cached_property
    def B(self) -> tuple:
        """Three Hermitian Fock matrices with purely imaginary entries,
        :func:`build_B0`."""
        return tuple(build_B0(self.basis, self.table))


GRID_FIELDS = ("modes", "basis", "pf", "hf", "rotations", "setups")

# every live model of build_model, by (grid key, params).  It holds nothing
# alive: it lets _grid find the grid of a model that outlived the grid's own
# cache entry, so that no coupling on that grid builds a second one
_live_models = weakref.WeakValueDictionary()


@functools.lru_cache(maxsize=64)
def _grid(key: ModelParams) -> dict:
    """The fields of a model that no coupling changes, for ``key`` at e = 1:
    g depends on |k| only, so G from this table is the G of every e.  While
    a model on the grid is alive, these are its fields."""
    for ref in _live_models.valuerefs():
        model = ref()
        if model is not None and ref.key[0] == key:
            return {name: getattr(model, name) for name in GRID_FIELDS}
    modes = build_mode_set(key)
    table = form_factors(modes, key)
    basis = enumerate_basis(modes.n_modes, key.N_max)
    return dict(
        modes=modes,
        basis=basis,
        pf=np.column_stack([dgamma_diag(basis, table.k[:, j]) for j in range(3)]),
        hf=dgamma_diag(basis, table.omega),
        rotations=grid_rotations(table),
        setups={},
    )


@functools.lru_cache(maxsize=64)
def build_model(params: ModelParams) -> FiberModel:
    """The grid of ``params``, shared by every coupling on it, plus what e
    changes: the form factors and their norms."""
    key = params.replace(e=1.0, gamma=1.0, M=1.0)
    grid = _grid(key)
    table = form_factors(grid["modes"], params)
    model = FiberModel(
        params=params, table=table, norms=coupling_norms(table), **grid
    )
    _live_models[key, params] = model
    return model


def build_A0(basis: FockBasis, table: FormFactorTable):
    """Quantized vector potential at the origin, one matrix per component.

    Real symmetric because the form factors are real.
    """
    return [field_sum(basis, table.f[:, j]) for j in range(3)]


def build_B0(basis: FockBasis, table: FormFactorTable):
    """Magnetic field at the origin: mode m contributes i (k_m ^ eps_m) g_m a_m + h.c.

    Hermitian with purely imaginary entries in the occupation basis, so
    entrywise conjugation flips its sign.
    """
    curl = np.cross(table.k, table.f)
    return [field_sum(basis, -1.0j * curl[:, j]) for j in range(3)]


def build_v(P, model: FiberModel):
    """v_j = P_j - dGamma(k_j) + A(0)_j, three real symmetric matrices."""
    P = np.asarray(P, dtype=float)
    eye = np.eye(model.dim)
    return [
        P[j] * eye - np.diag(model.pf[:, j]) + model.A[j] for j in range(3)
    ]


def spin_curl(v):
    """i (v ^ v)_j from matrix commutators of the components of v."""
    out = []
    for j in range(3):
        l, m = (j + 1) % 3, (j + 2) % 3
        out.append(1.0j * (v[l] @ v[m] - v[m] @ v[l]))
    return out


def sigma_dot_v(P, model: FiberModel) -> np.ndarray:
    """s(P) = sigma . v on C^2 tensor Fock, Hermitian."""
    v = build_v(P, model)
    return sum(np.kron(SIGMA[j], v[j]) for j in range(3))


def build_T(P, model: FiberModel) -> np.ndarray:
    """(sigma . v)^2 on C^2 tensor Fock, the square of the assembled spinor
    operator."""
    s = sigma_dot_v(P, model)
    with threads(s):
        return s @ s


def build_T_expanded(P, model: FiberModel) -> np.ndarray:
    """(sigma . v)^2 from the Pauli identity v.v + i sigma.(v ^ v).

    The commutators are evaluated as matrix products, so this agrees with
    :func:`build_T` to rounding error; the physical identification
    i (v ^ v) = e B(0) holds exactly only below the truncation edge (see
    :func:`spin_curl_mismatch`).
    """
    v = build_v(P, model)
    with threads(v[0]):
        v2 = sum(vj @ vj for vj in v)
        w = spin_curl(v)
    return np.kron(ID2, v2) + sum(np.kron(SIGMA[j], w[j]) for j in range(3))


def spin_curl_mismatch(P, model: FiberModel):
    """Deviation of i (v ^ v)_j from the mode-sum field B(0)_j.

    Returns (sub_block_residual, full_residual): the first restricts rows and
    columns to total number <= N_max - 1, where the identity is exact; the
    second includes the top sector, where compressed products leave an
    O(coupling^2) remainder.
    """
    w = spin_curl(build_v(P, model))
    keep = model.basis.totals() <= model.basis.n_max - 1
    sub = 0.0
    full = 0.0
    for j in range(3):
        diff = w[j] - model.B[j]
        full = max(full, float(np.max(np.abs(diff))))
        if keep.any():
            sub = max(sub, float(np.max(np.abs(diff[np.ix_(keep, keep)]))))
    return sub, full


def build_D(P, model: FiberModel) -> np.ndarray:
    """Dirac operator alpha.(P - P_f + A(0)) + M beta on C^4 tensor Fock."""
    v = build_v(P, model)
    d = sum(np.kron(ALPHA[j], v[j]) for j in range(3))
    d += model.params.M * np.kron(BETA, np.eye(model.dim))
    return d


def op_sqrt_eig(h: np.ndarray, with_norm: bool = False):
    """Hermitian PSD square root via spectral decomposition (reference path).

    Eigenvalues in [-DEFAULT_PSD_TOL * scale, 0) are clamped to zero;
    anything below raises ``NotPositiveSemidefiniteError``.  ``h`` may be
    one matrix or a (k, n, n) stack, rooted by one stacked ``eigh``; the Hermiticity guard
    and the scale max|eigenvalue| of the clamp are then per matrix.  With
    ``with_norm`` it returns (root, ||root||_2): the square root of the
    largest clamped eigenvalue, which the ``eigh`` has already given, one
    per matrix of a stack.
    """
    require_hermitian(h, what="op_sqrt_eig input")
    with threads(h):
        w, u = np.linalg.eigh(h)
        lowest = np.ravel(w[..., 0])
        scale = np.ravel(np.maximum(np.max(np.abs(w), axis=-1), 1e-300))
        bad = np.flatnonzero(lowest < -DEFAULT_PSD_TOL * scale)
        if bad.size:
            i = bad[0]
            where = f" in matrix {i} of the stack" if w.ndim > 1 else ""
            raise NotPositiveSemidefiniteError(
                f"minimum eigenvalue {lowest[i]:.3e} below "
                f"-{DEFAULT_PSD_TOL:.1e} * {scale[i]:.3e}{where}"
            )
        f = np.sqrt(np.clip(w, 0.0, None))
        root = hermitize((u * f[..., None, :]) @ u.conj().swapaxes(-1, -2))
    return (root, f[..., -1]) if with_norm else root


def kinetic_root(s: np.ndarray, M: float) -> np.ndarray:
    """f(s) = sqrt(s^2 + M^2) of a Hermitian s, from the eigenpairs of s.

    f(lambda) >= M > 0 on every eigenvalue, so no clamp is needed, and the
    root is :func:`_gram` of the eigenvectors: exactly symmetric for a real
    s.  ``s`` may be one matrix or a (k, n, n) stack, rooted by one stacked
    ``eigh`` with the Hermiticity guard per matrix.
    """
    require_hermitian(s, what="kinetic_root input")
    with threads(s):
        lam, u = np.linalg.eigh(s)
        return _gram(u, np.sqrt(lam * lam + M * M))


def _gram(u: np.ndarray, f: np.ndarray) -> np.ndarray:
    """u diag(f) u^dagger for f > 0, as a a^dagger with a = u f^{1/2}; u
    is scaled in place.  For a real u numpy forms a a^T by syrk, which
    returns an exactly symmetric matrix; a complex one is made Hermitian in
    place, (root + root^dagger) / 2 as :func:`pffiber.fock.hermitize` takes
    it, with one n x n temporary instead of two.  Matrix by matrix on a
    stack."""
    u *= np.sqrt(f)[..., None, :]
    root = u @ _dagger(u)
    if np.iscomplexobj(root):
        root += _dagger(root)  # a conjugate copy: no overlap with root
        root *= 0.5
    return root


def _dagger(u: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix, or of each in a stack."""
    return u.conj().swapaxes(-1, -2)


@functools.lru_cache(maxsize=16)
def _legendre_nodes(n: int) -> tuple:
    """The n-point Gauss-Legendre rule mapped onto theta in (0, pi/2), as
    (tan^2 theta, w / cos^2 theta) pairs: an immutable tuple, since
    :func:`pffiber.modes.gauss_legendre` takes O(n^2) work."""
    x, wts = gauss_legendre(n)
    theta = 0.25 * math.pi * (x + 1.0)
    return tuple(
        (math.tan(th) ** 2, wt / math.cos(th) ** 2) for th, wt in zip(theta, wts)
    )


def _sqrt_quad_nodes(h: np.ndarray, scale: float, n: int) -> np.ndarray:
    out = np.zeros_like(h)
    eye = np.eye(h.shape[0])
    with threads(h):
        for tan2, wt in _legendre_nodes(n):
            out += wt * np.linalg.solve(scale * tan2 * eye + h, h)
    return (2.0 * math.sqrt(scale) / math.pi) * (0.25 * math.pi) * out


def op_sqrt_quad(
    h: np.ndarray,
    tol: float = 1e-8,
    scale: float | None = None,
    max_nodes: int = 4096,
) -> np.ndarray:
    """Square root from the resolvent-integral formula, quadrature-evaluated.

    ``scale`` sets the substitution t = scale * s/(1-s); it should sit inside
    the spectrum (the strictly positive floor M^2 in all uses here).  Node
    counts double until successive estimates differ by less than ``tol``;
    no count above ``max_nodes`` is evaluated.
    """
    require_hermitian(h, what="op_sqrt_quad input")
    if scale is None:
        scale = max(float(np.trace(h).real) / h.shape[0], 1e-30)
    n, err = min(16, max_nodes), math.inf
    prev = _sqrt_quad_nodes(h, scale, n)
    while 2 * n <= max_nodes:
        n *= 2
        cur = _sqrt_quad_nodes(h, scale, n)
        err = float(np.max(np.abs(cur - prev)))
        if err < 0.5 * tol:
            return hermitize(cur)
        prev = cur
    raise QuadratureNotConverged(
        f"square-root quadrature stalled at error {err:.3e} > {tol:.1e} "
        f"with {n} nodes"
    )


def _as_model(params_or_model) -> FiberModel:
    if isinstance(params_or_model, FiberModel):
        return params_or_model
    return build_model(params_or_model)


def hf_spinor(model: FiberModel) -> np.ndarray:
    """Field energy tensored with the spin identity."""
    return np.kron(ID2, np.diag(model.hf))


def build_H(P, params_or_model) -> np.ndarray:
    """Fiber Hamiltonian gamma f(sigma.v) + H_f on C^2 tensor Fock."""
    model = _as_model(params_or_model)
    p = model.params
    h = kinetic_root(sigma_dot_v(P, model), p.M)
    return _add_field_energy(h, p.gamma, np.tile(model.hf, 2))


def _add_field_energy(root: np.ndarray, gamma: float, hf: np.ndarray) -> np.ndarray:
    """gamma root + diag(hf), in place on the root (one matrix or a
    stack): scaling and a real diagonal keep an exactly Hermitian root
    exactly Hermitian."""
    root *= gamma
    diagonal = np.einsum("...ii->...i", root)
    diagonal += hf
    return root


def _rotation_order(r: np.ndarray) -> int:
    n, power = 1, r
    while not np.array_equal(power, np.eye(3)):
        n, power = n + 1, power @ r
    return n


def _is_mirror(r: np.ndarray):
    """Whether each signed permutation in r is a reflection: det -1, trace 1."""
    return (np.trace(r, axis1=-2, axis2=-1) == 1.0) & (np.linalg.det(r) < 0)


def block_generator(P, model: FiberModel):
    """The element of G that block-diagonalizes H(P), with its mode action.

    R is an element of maximal order among the det +1 elements of
    ``model.rotations`` that fix P and have a
    :func:`pffiber.modes.mode_action`; ties go to the first.  The rotations
    that fix P != 0 form a cyclic group, so R generates it when R has a mode
    action; at P = 0 R generates a cyclic subgroup of G.  Improper elements
    do not compete by order (at P = 0 an S4 or S6 would win): only when no
    rotation qualifies is R the first mirror that fixes P and has a mode
    action.  Returns (R, perm, signs), or None when only the identity
    qualifies.
    """
    stab = stabilizer(model.rotations, P)
    best, best_order = None, 1
    for r in stab[np.linalg.det(stab) > 0]:
        order = _rotation_order(r)
        if order > best_order:
            action = mode_action(r, model.modes)
            if action is not None:
                best, best_order = (r, *action), order
    if best is not None:
        return best
    for r in stab[_is_mirror(stab)]:
        if (action := mode_action(r, model.modes)) is not None:
            return (r, *action)
    return None


def _spin_eigenvectors(r: np.ndarray, n: int):
    """Eigenvectors (chi_+, chi_-) of u.sigma for the unit axis u about which
    R turns by 2 pi / n, so D(R) chi_+- = exp(-+ i pi / n) chi_+-.  R = 1
    turns about no axis: chi_+- = e_up, e_down."""
    if n == 1:
        return np.array([1.0, 0.0]), np.array([0.0, 1.0])
    if n == 2:
        outer = r + np.eye(3)  # 2 n n^T for a half turn
        axis = outer[:, np.argmax(np.sum(outer * outer, axis=0))]
    else:
        axis = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    x, y, z = axis / math.sqrt(float(axis @ axis))
    if z == -1.0:
        return np.array([0.0, 1.0]), np.array([1.0, 0.0])
    norm = math.sqrt(2.0 + 2.0 * z)
    return (
        np.array([1.0 + z, x + 1.0j * y]) / norm,
        np.array([-(x - 1.0j * y), 1.0 + z]) / norm,
    )


def _state_action(basis: FockBasis, perm, signs):
    """(step, flip) of the signed state permutation Gamma that a mode action
    induces: Gamma e_i = flip[i] e_{step[i]}."""
    states = basis.states
    image = np.empty_like(states)
    image[:, perm] = states
    # states are in graded-lexicographic order, so sorting the image rows
    # the same way lists them in basis order
    order = np.lexsort(np.column_stack([image.sum(axis=1), image]).T[::-1])
    if not np.array_equal(image[order], states):
        raise RuntimeError("mode permutation does not map the basis onto itself")
    step = np.empty(basis.dim, dtype=np.int64)
    step[order] = np.arange(basis.dim)
    flip = np.where(states[:, signs < 0].sum(axis=1) % 2, -1.0, 1.0)
    return step, flip


def _fock_fourier_basis(basis: FockBasis, perm, signs, n: int):
    """Eigenbasis of the signed state permutation Gamma(R), Gamma^n = 1.

    Returns, per eigenvalue exp(2 pi i a / n), a = 0..n-1, the pair
    (pos, coef) of (n, cols) arrays: column c is
    sum_t coef[t, c] e_{pos[t, c]}, the Fourier sum over the Gamma-orbit of
    its smallest state pos[0, c].  Built by iterating the state permutation
    n times.
    """
    step, flip = _state_action(basis, perm, signs)
    # Gamma^t e_i = sign[t, i] e_{pos[t, i]}
    pos = np.empty((n + 1, basis.dim), dtype=np.int64)
    sign = np.empty((n + 1, basis.dim))
    pos[0], sign[0] = np.arange(basis.dim), 1.0
    for t in range(n):
        pos[t + 1] = step[pos[t]]
        sign[t + 1] = sign[t] * flip[pos[t]]
    rep = np.flatnonzero(pos[:n].min(axis=0) == np.arange(basis.dim))
    back = pos[1:, rep] == rep[None, :]
    length = np.argmax(back, axis=0) + 1
    closing = sign[length, rep]  # Gamma^L e_i = closing * e_i
    t = np.arange(n)[:, None]
    out = []
    for a in range(n):
        phase = (a * length) % n
        keep = np.where(closing > 0, phase == 0, 2 * phase == n)
        cols, ell = rep[keep], length[keep]
        coef = (
            np.exp(-2.0j * math.pi * a * t / n) * sign[:n, cols] * np.sqrt(ell) / n
        )
        out.append((pos[:n, cols], coef))
    return out


def _real_structure(P, model: FiberModel, r: np.ndarray, spins):
    """J = theta U(sigma) for the first mirror sigma of G that fixes P, has a
    mode action and makes sigma R a mirror, or None.

    sigma R is a mirror when sigma R sigma^T = R^T and the axis of R lies in
    the plane of sigma (a half turn and the mirror normal to its axis give
    sigma R = -1).  D(-sigma) = -i u.sigma for the mirror normal u, which is
    orthogonal to that axis, so J maps each spin vector chi of ``spins``
    onto phase * chi.  Returns (step, flip, phases), (step, flip) of
    Gamma(sigma) as in :func:`_state_action`.
    """
    stab = stabilizer(model.rotations, P)
    mirrors = stab[_is_mirror(stab)]
    for m in mirrors[_is_mirror(mirrors @ r)]:
        if (action := mode_action(m, model.modes)) is None:
            continue
        # 1 - sigma = 2 u u^T: its column at the first largest u_i^2 is
        # 2 u_i u with u_i > 0, which fixes the sign of u
        normal = np.eye(3) - m
        u = normal[:, np.argmax(np.diag(normal))]
        d = -1.0j * np.einsum("k,kab->ab", u / math.sqrt(float(u @ u)), SIGMA)
        phases = [np.vdot(chi, SIGMA[1] @ np.conj(d @ chi)) for chi in spins]
        return (*_state_action(model.basis, *action), phases)
    return None


def _j_pairs(pos, coef, step, flip, phase):
    """(x, y, p): the fixed vectors of J on the columns chi x f_c of one
    eigenvalue of :func:`_fock_fourier_basis` are x_c f_c + y_c f_{p[c]}.

    Gamma(sigma) conj(f_c) is the Fourier column f_p of the orbit that
    sigma maps orbit c onto, times flip[rep] conj(coef[s, p]) / coef[0, p]
    when it sends the representative of c to position s of that orbit, so
    J (chi x f_c) = alpha_c chi x f_p with alpha = phase * that factor.
    J^2 = 1 makes p[p[c]] = c and alpha_p = alpha_c.  A column that J fixes
    up to alpha becomes sqrt(alpha) f_c; a pair c < p becomes
    (f_c + alpha f_p)/sqrt2 in slot c and i (f_c - alpha f_p)/sqrt2 in
    slot p.
    """
    n, count = pos.shape
    slot = np.empty(step.size, dtype=np.int64)
    at = np.empty(step.size, dtype=np.int64)
    slot[pos] = np.arange(count)
    at[pos] = np.arange(n)[:, None]
    image = step[pos[0]]
    c, p, s = np.arange(count), slot[image], at[image]
    alpha = phase * flip[pos[0]] * np.conj(coef[s, p]) / coef[0, p].real
    x = np.where(c < p, 1.0, -1.0j * alpha) / math.sqrt(2.0)
    y = np.where(c < p, alpha, 1.0j) / math.sqrt(2.0)
    fixed = c == p
    x[fixed], y[fixed] = np.sqrt(alpha[fixed]), 0.0
    return x, y, p


def _real_block(s, P):
    """The (g, n, n) stack s on the fixed vectors of J, where it is real:
    its real part.  Raises, naming its momentum in the (g, 3) P, when the
    imaginary part left on a matrix exceeds 1e-13 of its own max|s|."""
    imag = np.max(np.abs(s.imag), axis=(-2, -1))
    bad = np.flatnonzero(imag > 1e-13 * np.max(np.abs(s), axis=(-2, -1)))
    if bad.size:
        i = bad[0]
        raise RuntimeError(
            f"imaginary part {imag[i]:.3e} left on J-fixed columns at P = {P[i]}"
        )
    return np.ascontiguousarray(s.real)


class Columns(NamedTuple):
    """One family of block columns sum_t coef[t, c] e_{pos[t, c]}, as a
    per-state table: Fock state i lies in column col[i, k] with weight
    w[i, k], the coefficients of its terms there summed, for k < K.  The
    Gamma-orbits are disjoint, so a state lies in at most one Fourier column
    of :func:`_fock_fourier_basis` and in at most two J-fixed columns:
    K <= 2, and unused slots hold column 0 with weight 0.  An empty family
    has K = 0.  rep[c] is the smallest state of the orbit of column c,
    pos[0, c]."""

    rep: np.ndarray  # (cols,)
    col: np.ndarray  # (dim, K)
    w: np.ndarray  # (dim, K)


def _sum_by_key(key, val):
    """The distinct keys, ascending, and the sum of the values of each, in
    their order (the sort is stable)."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    return key[first], np.add.reduceat(val[order], first)


def _columns(pos, coef, dim: int) -> Columns:
    """The :class:`Columns` table of the (pos, coef) columns."""
    count = pos.shape[1]
    # one key per term, state-major, so the terms of a (state, column) are
    # summed in t order
    key, w = _sum_by_key((pos * count + np.arange(count)).ravel(), coef.ravel())
    state, col = np.divmod(key, count)
    slot = np.arange(state.size) - np.searchsorted(state, state)
    width = slot.max(initial=-1) + 1
    table_col = np.zeros((dim, width), np.int64)
    table_w = np.zeros((dim, width), complex)
    table_col[state, slot] = col
    table_w[state, slot] = w
    return Columns(pos[0], table_col, table_w)


def _scatter(parts, shape) -> np.ndarray:
    """The sum of W_rows^dagger X W_cols over ``parts`` for g operators X at
    once, as a complex (g, *shape) array.  A part (rows, cols, i, j, val,
    offset) holds g Fock operators with entries X[i, j] = val, one row of
    the (g, entries) ``val`` each; each entry adds
    conj(W_rows[i, a]) val W_cols[j, b] at the flat index
    offset + a * shape[1] + b of its own matrix.  The terms of the parts,
    O(g entries K^2) each, are written in turn into one index and one weight
    array, so only one part's temporaries live at a time, and one bincount
    adds them up in that order: every bin holds the terms of one matrix, in
    the order of a scatter of that matrix alone, so each matrix equals its
    own scatter bit for bit.  The bincount reads the weights as (real,
    imaginary) pairs and writes the result as such pairs, so neither is
    split into a real and an imaginary copy."""
    g, size = len(parts[0][4]), shape[0] * shape[1]
    sizes = [i.size * r.col.shape[1] * c.col.shape[1] for r, c, i, *_ in parts]
    index = np.empty((g, sum(sizes), 2), dtype=np.int64)
    weight = np.empty((g, sum(sizes)), dtype=complex)
    matrix = size * np.arange(g)[:, None]
    start = 0
    for (rows, cols, i, j, val, offset), count in zip(parts, sizes):
        end = start + count
        at = rows.col[i][:, :, None] * shape[1] + cols.col[j][:, None, :]
        flat = at.reshape(1, -1) + offset + matrix
        index[:, start:end] = 2 * flat[..., None] + np.arange(2)
        terms = np.conj(rows.w[i])[:, :, None] * (
            val[:, :, None, None] * cols.w[j][:, None, :]
        )
        weight[:, start:end] = terms.reshape(g, -1)
        start = end
    out = np.bincount(index.ravel(), weight.view(float).ravel(), 2 * g * size)
    return out.view(complex).reshape(g, *shape)


def _theta_map(src, dst, r: np.ndarray) -> tuple:
    """(perm, phase) of K = W_dst^dagger theta W_src, K[i, perm[i]] =
    phase[i], for the columns ``src`` of a block and ``dst`` of its
    partner: theta W_src x = W_dst K conj(x).

    theta (chi x f) = (sigma_2 conj(chi)) x conj(f), so K is, per pair of
    parts, the spin overlap times F_dst^dagger conj(F_src): O(dim K^2)
    per-state terms, summed by (row, column).  Raises, naming the generator
    R of the stabilizer, unless each row and column holds one sum of modulus
    1 +- 1e-12 and every other sum is at most 1e-12."""
    n = sum(cols.rep.size for _, cols in src)
    keys, vals, row = [], [], 0
    for chi_dst, rows in dst:
        col = 0
        for chi_src, cols in src:
            spin = np.vdot(chi_dst, SIGMA[1] @ np.conj(chi_src))
            at = (row + rows.col[:, :, None]) * n + col + cols.col[:, None, :]
            keys.append(at.ravel())
            vals.append(np.conj(rows.w[:, :, None] * cols.w[:, None, :]).ravel() * spin)
            col += cols.rep.size
        row += rows.rep.size
    key, val = _sum_by_key(np.concatenate(keys), np.concatenate(vals))
    unit = np.abs(np.abs(val) - 1.0) <= 1e-12
    row, col = np.divmod(key[unit], n)
    once = [np.all(np.bincount(x, minlength=n) == 1) for x in (row, col)]
    if not all(once) or np.any(np.abs(val[~unit]) > 1e-12):
        raise RuntimeError(f"theta is no phased permutation between two "
                           f"blocks of the stabilizer generated by R = {r.tolist()}")
    perm, phase = np.empty(n, dtype=np.int64), np.empty(n, dtype=complex)
    perm[row], phase[row] = col, val[unit]
    return perm, phase


def _signs(phase: np.ndarray, unit) -> np.ndarray:
    """phase / unit as exact signs; raises where one is not +-1 within 1e-12."""
    z = phase * np.conj(unit)
    sign = np.where(z.real < 0.0, -1.0, 1.0)
    if np.max(np.abs(z - sign)) > 1e-12:
        raise RuntimeError("the phases of theta are not one unit up to signs")
    return sign


def theta_image(x: np.ndarray, rows, cols) -> np.ndarray:
    """K_rows conj(x) K_cols^dagger for the phased permutations (perm,
    phase) ``rows`` and ``cols``, K[i, perm[i]] = phase[i], of a matrix or
    of each matrix of a stack.  One gather in the dtype of x, so a real
    block stays real: theta's phases between two blocks are +-c for one
    unit c, so each product phase_a conj(phase_b) is an exact sign."""
    out = x[..., rows[0][:, None], cols[0]]
    if np.iscomplexobj(out):
        np.conj(out, out=out)
    unit = cols[1][0]
    out *= _signs(rows[1], unit)[:, None]
    out *= _signs(cols[1], unit)
    return out


def _spin_frame(P, model: FiberModel, coefs):
    """sigma.v(P) in the spin frame (chi_+, chi_-) of u.sigma, as two sparse
    Fock operators, for each momentum of the (g, 3) stack P.

    Returns (axial, flip): axial = u.v = <chi_+|sigma.v|chi_+>
    = -<chi_-|sigma.v|chi_->, flip = <chi_+|sigma.v|chi_->, and
    <chi_-|sigma.v|chi_+> = conj(flip) because every v_k is real.  ``coefs``
    holds the coefficients c of v_k in each, and
    c.v = diag((P - P_f).c) + sum_m (f c)_m (a_m + a_m^dagger) is returned
    as its diagonals, one row per momentum, and its one coefficient per
    mode, which does not depend on P: (d, g).
    """
    rel = P[:, None, :] - model.pf
    return tuple((rel @ c, model.table.f @ c) for c in map(np.asarray, coefs))


def _sigma_v(model: FiberModel, frame, rows, cols) -> np.ndarray:
    """W_rows^dagger (sigma.v) W_cols for the columns ((chi_+, F), (chi_-,
    G)) ``rows`` and ``cols`` of two blocks, from the sparse ``frame`` =
    (axial, flip) of :func:`_spin_frame`: a (g, rows, cols) stack, one
    block per momentum of the frame.

    The four quadrants F^dagger (chi^dagger sigma.v chi') G' are one
    bincount into the stack: each sparse operator x = (d, g) contributes its
    diagonal and its entries on the ``ladder`` table of the basis and their
    transposes, O(nnz K^2 + block size) terms per quadrant and momentum.
    Every entry of a block lies in one quadrant, whose terms keep the order
    of a quadrant-by-quadrant sum; the lower right one, -axial, is negated
    after its sum."""
    (_, row_up), (_, row_down) = rows
    (_, col_up), (_, col_down) = cols
    lowered, raised, modes, amps = model.basis.ladder
    diag = np.arange(model.dim)
    i = np.concatenate([diag, lowered, raised])
    j = np.concatenate([diag, raised, lowered])
    axial, flip = (
        np.concatenate(
            [d, np.broadcast_to(np.tile(g[modes] * amps, 2), (len(d), 2 * modes.size))],
            axis=1,
        )
        for d, g in frame
    )
    up, left = row_up.rep.size, col_up.rep.size
    width = left + col_down.rep.size
    out = _scatter(
        [
            (row_up, col_up, i, j, axial, 0),
            (row_up, col_down, i, j, flip, left),
            (row_down, col_up, i, j, np.conj(flip), up * width),
            (row_down, col_down, i, j, axial, up * width + left),
        ],
        (up + row_down.rep.size, width),
    )
    lower = out[:, up:, left:]
    np.negative(lower, out=lower)
    return out


def expand(parts, x: np.ndarray) -> np.ndarray:
    """W x on C^2 tensor Fock for a vector x on the block of the columns
    ``parts``."""
    out, start = 0.0, 0
    for chi, cols in parts:
        part = x[start:start + cols.rep.size]
        start += cols.rep.size
        out = out + np.kron(chi, np.sum(cols.w * part[cols.col], axis=1))
    return out


def theta_pairing(theta, parts, twin, x) -> float:
    """|<v, theta v>| for v = W x, x a vector on the block of the columns
    ``parts``: theta v = W' K conj(x), W' the partner's columns ``twin``
    and K the map ``theta`` = (perm, phase), (K conj(x))_i = phase_i
    conj(x)[perm_i].  theta^2 = -1 makes it 0."""
    perm, phase = theta
    v, tv = expand(parts, x), expand(twin, phase * np.conj(x)[perm])
    return abs(complex(np.vdot(v, tv)))


def _reps(parts) -> np.ndarray:
    """The orbit representative of each column of ``parts``: 1 x diag(d),
    d constant on the Gamma-orbits, is diag(d[_reps(parts)]) on the block."""
    return np.concatenate([cols.rep for _, cols in parts])


def _symmetry_setup(P, model: FiberModel):
    """What the blocks of H(P) under its stabilizer need of P but s(P), a
    function of the stabilizer of P: (mirror, real, coefs, blocks) under
    its :func:`block_generator` R or, without one, under R = 1 with the
    identity action, whose one block has W = 1 and is its own partner.

    A rotation R of order n: U(R) = D(R) x Gamma(R), D(R) = cos(pi/n) -
    i sin(pi/n) n.sigma, and U^n = -1.  Block j is H(P) on the eigenspace
    exp(i pi (2j + 1) / n) of U, spanned by chi_+ x (Gamma eigenvectors
    a = j + 1) and chi_- x (Gamma eigenvectors a = j), with H_f read at
    the smallest state of each Gamma-orbit.  Empty eigenspaces give no
    block; theta maps block j onto block n - 1 - j.  A mirror M: U = D(-M)
    x Gamma(M) has eigenvalues -i (block 0) and +i (block 1), each of
    dimension dim, which theta swaps.  ``coefs`` are the
    <chi_+|sigma_k|chi_+-> of :func:`_spin_frame`.  Per nonempty block i,
    ``blocks`` has the one description of it: (partner, parts, theta), the
    block that theta maps it onto, its columns W_i, one (chi,
    :class:`Columns`) per spin vector, and the :func:`_theta_map` onto the
    partner.  Every column is chi x f: f is the Fourier sum over one
    Gamma-orbit of occupation states or, when ``real``, a J-fixed
    combination of the sums over two orbits that sigma swaps, whose first
    orbit is the column's own (:func:`_j_pairs`); without a symmetry,
    W = 1: chi is e_up or e_down and f a single occupation state.  No dense
    matrix is kept: the tables are O(dim)."""
    one = np.eye(3)
    r, perm, signs = block_generator(P, model) or (one, *mode_action(one, model.modes))
    mirror = bool(np.linalg.det(r) < 0)
    n = 2 if mirror else _rotation_order(r)
    plus, minus = _spin_eigenvectors(-r if mirror else r, n)
    coefs = ([np.real(np.vdot(plus, s @ plus)) for s in SIGMA],
             [np.vdot(plus, s @ minus) for s in SIGMA])
    fourier = _fock_fourier_basis(model.basis, perm, signs, n)
    real = None if mirror else _real_structure(P, model, r, (plus, minus))
    # a mirror's j = 1 is its -i block: listed first, it is the block that
    # the ground energy and certify_above take of the pair
    order = range(n - 1, -1, -1) if mirror else range(n)
    kept = [j for j in order if fourier[(j + 1) % n][0].size + fourier[j][0].size]
    families = []
    for j in kept:
        halves = (fourier[(j + 1) % n], fourier[j])
        if real is not None:
            step, flip, phases = real
            # each J-fixed column keeps the (pos, coef) form with 2n terms,
            # its own orbit first, so pos[0] stays its representative
            halves = [
                (np.vstack([pos, pos[:, p]]), np.vstack([coef * x, coef[:, p] * y]))
                for (pos, coef), phase in zip(halves, phases)
                for x, y, p in [_j_pairs(pos, coef, step, flip, phase)]
            ]
        families.append(tuple(
            (chi, _columns(pos, coef, model.dim))
            for chi, (pos, coef) in zip((plus, minus), halves)
        ))
    partners = [kept.index(n - 1 - j) for j in kept]
    blocks = [
        (p, parts, _theta_map(parts, families[p], r))
        for p, parts in zip(partners, families)
    ]
    # a partner is its head's theta-image, and K diag(d) K^dagger = diag(d[perm])
    for p, parts, (perm, _) in blocks:
        if not np.array_equal(model.hf[_reps(families[p])], model.hf[_reps(parts)][perm]):
            raise RuntimeError(f"H_f is not theta-invariant between two blocks of "
                               f"the stabilizer generated by R = {r.tolist()}")
    return mirror, real is not None, coefs, blocks


# a stack of momenta holds at most this many bytes of block matrices, and of
# the terms that scatter them, and at least one momentum.  The stacked
# temporaries (scatter terms, SVD factors, eigenvectors) come to several
# times this, so it is kept small: at 1 MiB the desk verify peaked 0.6 MB
# higher.
# At mid scale a 325 x 325 complex mirror block (1.7 MB) is solved alone
STACK_BYTES = 128 * 1024


def pair_heads(setup) -> list:
    """The first block of each theta-pair of ``setup``, in order: the
    blocks whose index is at most their partner's."""
    return [i for i, (partner, _, _) in enumerate(setup[3]) if i <= partner]


def setup_stacks(P, model: FiberModel):
    """(index, setup) over the stacks of the (g, 3) P: ``index`` holds the
    positions in P of momenta that share a stabilizer, at most as many as
    ``STACK_BYTES`` allows (:func:`_momentum_bytes`), at least one, and
    ``setup`` is their :func:`_symmetry_setup` from the grid's store, built
    there on first use.  Groups come in the order of their first
    momentum."""
    groups = {}
    for i, p in enumerate(P):
        groups.setdefault(stabilizer(model.rotations, p).tobytes(), []).append(i)
    for key, members in groups.items():
        if key not in model.setups:
            model.setups[key] = _symmetry_setup(P[members[0]], model)
        setup = model.setups[key]
        size = max(1, STACK_BYTES // _momentum_bytes(model, setup))
        for start in range(0, len(members), size):
            yield members[start:start + size], setup


def _momentum_bytes(model: FiberModel, setup) -> int:
    """What one momentum under ``setup`` adds to a stack: the bytes of its
    largest block matrix, or of the index and weight of the terms of its
    largest :func:`_sigma_v` scatter (32 bytes a term), whichever is more.
    At desk scale the terms outweigh the matrices."""
    _, real, _, specs = setup
    entries = model.dim + 2 * model.basis.ladder[0].size
    most = 0
    for _, parts, _ in specs:
        n = sum(cols.rep.size for _, cols in parts)
        width = sum(cols.col.shape[1] for _, cols in parts)
        most = max(most, (8 if real else 16) * n * n, 32 * entries * width**2)
    return most


def theta_pair(P, model: FiberModel, setup, i: int) -> tuple:
    """(h, bound) of the theta-pair of head i of ``setup`` for the (g, 3)
    stack P: the (g, n, n) stack of block i, by :func:`_stack_block`, and
    the pair's theta bound gamma ||theta s_i theta^-1 + s_t||_F, s =
    sigma.v, one per momentum.  theta s_i theta^-1 is K_i conj(s_i) K_i^dagger, or
    K_t conj(s_i) K_i^dagger for a mirror pair, whose s_i maps block i onto
    t and whose s_t is s_i^dagger.  The partner t has the head's spectrum
    up to this bound, and is not built; why the bound holds is in
    :mod:`pffiber.spectral`."""
    mirror, _, coefs, specs = setup
    t, _, theta = specs[i]
    frame = _spin_frame(P, model, coefs)
    s = _block_s(P, model, frame, setup, i)
    s_t = _dagger(s) if mirror else s if t == i else _block_s(P, model, frame, setup, t)
    image = theta_image(s, specs[t if mirror else i][2], theta)
    image += s_t
    bound = model.params.gamma * frobenius(image)
    del image, s_t
    return _stack_block(P, model, setup, i, s), bound


def _stack_block(P, model: FiberModel, setup, i: int, s=None) -> np.ndarray:
    """The (g, n, n) stack of block i of ``setup`` for the (g, 3) P,
    gamma sqrt(s_i^dagger s_i + M^2) + H_f with the stacked s_i of
    :func:`_block_s`, unless given: rooted by :func:`kinetic_root` under a
    rotation, where s_i is Hermitian, and by :func:`_svd_root` under a
    mirror; H_f is added in the root's own array.  Its partner, columns
    and theta map are ``setup[3][i]``."""
    mirror, _, coefs, specs = setup
    kernel = _svd_root if mirror else kinetic_root
    # a new s is held by no name here, so the kernel frees it before rooting
    root = kernel(_block_s(P, model, _spin_frame(P, model, coefs), setup, i)
                  if s is None else s, model.params.M)
    return _add_field_energy(root, model.params.gamma, model.hf[_reps(specs[i][1])])


def _block_s(P, model: FiberModel, frame, setup, i: int) -> np.ndarray:
    """s_i = W_t^dagger (sigma.v) W_i for block i of ``setup``, from the
    ``frame`` of the (g, 3) P.

    A rotation commutes with sigma.v, so t = i: s_i is Hermitian, and real
    on J-fixed columns.  A mirror anticommutes with it, so sigma.v has no
    part within an eigenspace of U and t is the theta-partner of i: s_i
    maps block i onto it, and sqrt(s_i^dagger s_i + M^2) is f(sigma.v) =
    sqrt((sigma.v)^2 + M^2) on block i."""
    mirror, real, _, specs = setup
    partner, parts, _ = specs[i]
    s = _sigma_v(model, frame, specs[partner][1] if mirror else parts, parts)
    return _real_block(s, P) if real else s


def _svd_root(s: np.ndarray, M: float) -> np.ndarray:
    """sqrt(s^dagger s + M^2) = V f(Sigma) V^dagger from the SVD s = W Sigma
    V^dagger of each matrix of a stack, f = sqrt(Sigma^2 + M^2); s and W
    are freed before the root is formed."""
    with threads(s):
        sigma, vh = np.linalg.svd(s)[1:]
        del s
        # V f V^dagger = conj(conj(V) f V^T), and conj(V) = vh^T: no copy of V
        root = _gram(vh.swapaxes(-1, -2), np.sqrt(sigma * sigma + M**2))
    return np.conj(root, out=root)


def build_H_SL(P, params_or_model) -> np.ndarray:
    """Spinless Hamiltonian gamma sqrt(sum v_j^2 + M^2) + H_f on Fock space."""
    model = _as_model(params_or_model)
    p = model.params
    v = build_v(P, model)
    v2 = sum(vj @ vj for vj in v)
    root = op_sqrt_eig(v2 + p.M**2 * np.eye(model.dim))
    return hermitize(p.gamma * root + np.diag(model.hf))


def h0_diag(P, model: FiberModel) -> np.ndarray:
    """Diagonal of the free fiber Hamiltonian on the Fock factor."""
    P = np.asarray(P, dtype=float)
    rel = P[None, :] - model.pf
    kin = np.sqrt(np.sum(rel * rel, axis=1) + model.params.M**2)
    return model.params.gamma * kin + model.hf


def interaction_norm(P, params_or_model) -> float:
    """Operator norm of (|D(P)| - |D_0(P)|) (H_0(P) + 1)^{-1}.

    Evaluated on the C^2 block (the C^4 Dirac operator is block-diagonal with
    two copies of the same operator, so the norm agrees).  |D| is rooted
    from T(P) + M^2, which is exactly diagonal at e = 0, so the norm is 0.0.
    """
    model = _as_model(params_or_model)
    p = model.params
    P = np.asarray(P, dtype=float)
    t = build_T(P, model)
    absd = op_sqrt_eig(t + p.M**2 * np.eye(2 * model.dim))
    rel = P[None, :] - model.pf
    absd0 = np.sqrt(np.sum(rel * rel, axis=1) + p.M**2)
    h0 = np.kron(np.ones(2), p.gamma * absd0 + model.hf)
    hi = absd - np.kron(ID2, np.diag(absd0))
    with threads(hi):
        return float(np.linalg.norm(hi / (h0[None, :] + 1.0), ord=2))


def lipschitz_ratio(P, k, params_or_model) -> float:
    """|| (|D(P-k)| - |D(P)|) (H(P) + 1)^{-1} || / |k|."""
    model = _as_model(params_or_model)
    p = model.params
    P = np.asarray(P, dtype=float)
    k = np.asarray(k, dtype=float)
    root = kinetic_root(sigma_dot_v(P, model), p.M)
    h = p.gamma * root + hf_spinor(model)
    diff = kinetic_root(sigma_dot_v(P - k, model), p.M) - root
    with threads(h):
        resolvent = np.linalg.inv(h + np.eye(2 * model.dim))
        return float(np.linalg.norm(diff @ resolvent, ord=2)) / float(
            np.linalg.norm(k)
        )
