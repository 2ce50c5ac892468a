"""Low-lying spectra, degeneracy clusters, and the one-photon gap function.

The ground energy E(P) is the bottom of the spectrum of the fiber
Hamiltonian; E1(P) is the first level strictly above the ground cluster at
a clustering tolerance; the gap function is

    Delta(P) = min over trial k of  E(P - k) + omega(k) - E(P),

approximated on a finite trial set that always contains k = 0 (so
Delta(P) <= omega(0) = m_ph exactly) and the grid wavevectors.

Both solves work on the blocks of H(P) under its grid stabilizer
(:func:`pffiber.hamiltonian.setup_stacks`): when an element of the grid's
point group fixes P, H(P) splits into the eigenspaces of that element.  A
momentum with a C4 stabilizer gives four blocks of a quarter of the size;
one that only a mirror fixes, such as a Delta trial P - k with P along an
axis and k transverse to it, gives two of half the size; a generic momentum
gives one block of the full size, built the same way.  Time reversal theta
maps each block onto a partner with the same spectrum.  Where a mirror of the grid also fixes P
and inverts the rotation, the rotation blocks are real symmetric, so their
solves run in real arithmetic.

:func:`solve_fiber` is the one solve per momentum that every per-P consumer
reads (the CLI reports, the gap-bound report, the Kramers certificate, the
verify checks).  It builds and runs ``eigh`` on the head of every
theta-pair of blocks (:func:`pffiber.hamiltonian.theta_pair`), reads the
partner from it, and keeps a small :class:`FiberSolve` record of H(P) --
eigenvalues, residuals and, along u, the sandwich margins -- then drops
the blocks and the eigenvectors.

Why the partner need not be built: the head's theta-image, the block of
theta H theta^-1, has the head's spectrum.
H(P) = gamma f(s) + H_f, s = sigma.v Hermitian, f(x) = sqrt(x^2 + M^2)
even and 1-Lipschitz; H_f is theta-invariant (asserted once per set-up),
so theta H theta^-1 - H = gamma (f(-s + E) - f(-s)), E = theta s
theta^-1 + s, whose Frobenius norm is taken block by block at every
momentum.  f is 1-Lipschitz in the Frobenius norm too: in the eigenbases
u_a of A and w_b of B, ||f(A) - f(B)||_F^2 = sum |f(a) - f(b)|^2
|<u_a, w_b>|^2 <= ||A - B||_F^2.  The solved H differs from H(P) only on
the partners, where it is theta H theta^-1, so by Weyl (Bhatia, *Matrix
Analysis*, ch. III) each of its eigenvalues and eigenpair residuals is
within gamma ||E||_F of H(P)'s, at every M.  The record's theta residual
is that bound over ||H||.  The record is kept in the run's
:class:`EnergyCache`, held in memory for that run only, under the key of
(parameters, P), so one run solves each key once; its E1 and multiplicity
are clustered once, at ``CLUSTER_TOL``, when it is built.
:func:`ground_data` is the eigenvalues-only path (``eigvalsh``) used for the
trial momenta of Delta(P), the convergence ladder and the verify checks that
need E(P) only: it returns E alone, the smallest lowest eigenvalue of the
blocks.  It solves the first block of the first theta-pair, and of every
later pair only the first block, and that only where the operator
certificate cannot put it above the lowest eigenvalue so far
(:func:`_ground_energies`); with a photon mass the ground level is one
Kramers pair below a gap, so on the grids here one block is solved.  Both
call LAPACK through ``numpy.linalg`` only, on the BLAS threads that
:func:`pffiber.blas.threads` gives a block of their size.

Both solve many momenta at once: :func:`solve_batch`, :func:`ground_batch`
and :func:`delta_search` take a stack of momenta, and the single-momentum
functions are batches of one.  A batch looks each momentum up in the cache,
solves each distinct missing key once, and builds the misses in the stacks
of :func:`pffiber.hamiltonian.setup_stacks`: momenta that share a
stabilizer share everything but the diagonal of sigma.v, so each block of
such a group is one stacked ``eigh`` or ``eigvalsh``.  LAPACK runs the same
routine on each matrix of a stack, and the residuals and guards stay per
momentum, so every result equals that of the momentum alone bit for bit.

For R in the grid's point group G, rotations and improper elements alike,
H(R q) is unitarily equivalent to H(q).  If R also fixes P, the trials k
and R k give the same value of E(P - k) + omega(k), so :func:`delta_gap`
solves one trial per orbit of the stabilizer of P.  The reduction is exact:
the skipped trials differ from the kept one only by rounding.  Of those
orbits, the ones whose value a lower bound on E(P - k) puts above the k = 0
value are not solved either (:func:`delta_trials`): first the closed-form
corollary bound, then, on what it keeps, an operator certificate
(:func:`pffiber.certificate.certify_above`) that needs no eigensolve: a
test of the block's diagonal, then, where that test fails, a Schur
complement on the states it fails on, by conjugate gradients with s
applied through sparse tables.  The ground path above uses the same
certificate.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .blas import threads
from .certificate import certify_above, certify_stack_block
from .fock import hermiticity_defect
from .hamiltonian import (
    FiberModel,
    _as_model,
    _reps,
    _stack_block,
    pair_heads,
    setup_stacks,
    theta_pair,
    theta_pairing,
)
from .modes import ModelParams, dispersion, orbit_representatives, stabilizer

CLUSTER_TOL = 1e-8
P_QUANTUM = 1e-12
N_LOW_VECTORS = 4
RESIDUAL_TOL = 1e-9
# a Delta trial is skipped only when its lower bound exceeds the k = 0 value
# by more than this, far above the rounding of either
PRUNE_MARGIN = 1e-9


class EigensolverError(RuntimeError):
    """Raised when an eigensolve fails or violates its residual contract."""


def low_spectrum(h: np.ndarray, m: int, residual_tol: float = RESIDUAL_TOL):
    """m smallest eigenvalues with orthonormal eigenvectors.

    Residuals ||H v - lambda v|| are checked against
    ``residual_tol * ||H||``.
    """
    if not 1 <= m <= len(h):
        raise ValueError(f"requested {m} eigenpairs of a dimension-{len(h)} matrix")
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigensolverError(f"dense eigensolver failed: {exc}") from exc
    scale = max(abs(vals[0]), abs(vals[-1]), 1e-300)
    vals, vecs = vals[:m], vecs[:, :m]
    res = np.linalg.norm(h @ vecs - vecs * vals[None, :], axis=0)
    if np.any(res > residual_tol * scale):
        raise EigensolverError(
            f"eigenpair residual {res.max():.3e} exceeds {residual_tol:.1e} * ||H||"
        )
    return vals, vecs


def cluster_degeneracy(eigenvalues, scale_tol: float = CLUSTER_TOL):
    """Greedy clustering of an ascending eigenvalue list.

    Consecutive values within ``scale_tol * max(1, |value|)`` join a cluster;
    returns a list of (cluster mean, multiplicity).
    """
    vals = np.asarray(eigenvalues, dtype=float)
    gaps = np.diff(vals)
    if np.any(gaps < 0):
        raise ValueError("eigenvalues must be ascending")
    if not vals.size:
        return []
    tol = scale_tol * np.maximum(1.0, np.abs(vals[1:]))
    starts = np.concatenate([[0], np.flatnonzero(gaps > tol) + 1])
    sizes = np.diff(starts, append=len(vals))
    means = np.add.reduceat(vals, starts) / sizes
    return list(zip(means.tolist(), sizes.tolist()))


def _quantize_P(P) -> tuple:
    return tuple(int(round(x / P_QUANTUM)) for x in np.asarray(P, dtype=float))


class EnergyCache:
    """Map (params fingerprint, quantized P) -> E(P) or the record of H(P),
    for the length of one run.

    An entry is the float E of :func:`ground_batch` (``eigvalsh``) or the
    :class:`FiberSolve` record of :func:`solve_batch` (``eigh``); the two
    agree to rounding.  ``put`` stores either; ``get`` answers with E, a
    record's own E included, and ``get_solve`` with records only; ``hits``
    and ``misses`` count lookups of both.  A record replaces a float, so
    that every consumer of that momentum reads the E of its report.
    The cache lives in memory only: every value in it was computed by the
    run that reads it, under that run's BLAS settings, so a hit equals
    recomputation bit for bit.
    """

    def __init__(self):
        self._data = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(params: ModelParams, P) -> tuple:
        return (params.fingerprint,) + _quantize_P(P)

    def _lookup(self, key, records_only: bool):
        got = self._data.get(key)
        if records_only and not isinstance(got, FiberSolve):
            got = None
        self.hits += got is not None
        self.misses += got is None
        return got

    def get(self, key):
        got = self._lookup(key, False)
        return getattr(got, "E", got)

    def put(self, key, value):
        self._data[key] = value

    def get_solve(self, key):
        return self._lookup(key, True)


def _ground_triple(vals, cluster_tol: float) -> tuple:
    """(E, E1, ground multiplicity) from ascending eigenvalues."""
    mult = cluster_degeneracy(vals, cluster_tol)[0][1]
    e1 = float(vals[mult]) if len(vals) > mult else None
    return float(vals[0]), e1, mult


def _batch(P, model, lookup, solve_stack) -> list:
    """The value at each momentum of the (g, 3) stack P, under its cache key.

    ``lookup`` is the (get, put) of a cache.  Each momentum is looked up
    once, as one call per momentum would: the first lookup of a key may
    miss, and the later ones find what the first stored.  The distinct
    misses are taken in the stacks of :func:`setup_stacks`, and
    ``solve_stack(P, setup)`` gives the values of each stack.  A LAPACK
    failure in building or solving a stack raises ``EigensolverError``,
    naming that stack's momenta.
    """
    P = np.asarray(P, dtype=float).reshape(-1, 3)
    keys = [EnergyCache.key(model.params, p) for p in P]
    get, put = lookup
    first = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    found, missing = {}, []
    for key, i in first.items():
        hit = get(key)
        if hit is None:
            missing.append(i)
        else:
            found[key] = hit
    todo = P[missing]
    for index, setup in setup_stacks(todo, model):
        try:
            values = solve_stack(todo[index], setup)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(
                f"eigensolver failed at one of P = {todo[index].tolist()}: {exc}"
            ) from exc
        for at, value in zip(index, values):
            found[keys[missing[at]]] = value
            put(keys[missing[at]], value)
    for i, key in enumerate(keys):
        if i != first[key]:
            get(key)
    return [found[key] for key in keys]


def ground_data(P, params_or_model, cache: EnergyCache | None = None) -> float:
    """E(P), the ground energy of the fiber Hamiltonian at momentum P:
    :func:`ground_batch` of one momentum."""
    return ground_batch([P], params_or_model, cache)[0]


def ground_batch(P, params_or_model, cache: EnergyCache | None = None) -> list:
    """E, the smallest eigenvalue of H(P), at each momentum of the (g, 3)
    stack P.

    Eigenvalues only, of the first block of each theta-pair (the partner
    has the same spectrum), and of no block that the certificate puts
    above the lowest eigenvalue found so far (:func:`_ground_energies`): E
    is bit for bit the smallest lowest eigenvalue of all blocks.  Each
    distinct key is solved once, and the misses are solved together: one
    stacked ``eigvalsh`` per block of the momenta that share a stabilizer
    (:func:`setup_stacks`), which runs the LAPACK call of a single momentum
    on each matrix.  Without a ``cache``, one of the call's own.
    """
    model = _as_model(params_or_model)
    cache = EnergyCache() if cache is None else cache
    return _batch(P, model, (cache.get, cache.put),
                  lambda at_P, setup: _ground_energies(at_P, model, setup))


def _ground_energies(P, model: FiberModel, setup) -> list:
    """The E of each momentum of the (g, 3) P under one ``setup``.

    The first blocks of the theta-pairs come in stream order
    (:func:`pair_heads`).  The first is built and solved at every momentum,
    one stacked ``eigvalsh``.  Each later one is proven above tau = the
    lowest eigenvalue so far + ``PRUNE_MARGIN`` where
    :func:`certify_stack_block` can, and is built and solved at the momenta
    where it cannot.  A block is so skipped only when its lowest eigenvalue
    lies above the running minimum, and E is the minimum over all of them
    bit for bit.  Each block is dropped before the next is built."""
    first, *later = pair_heads(setup)
    # a copy, not a view that would keep every eigenvalue of the stack
    lowest = _eigvalsh(_stack_block(P, model, setup, first))[:, 0].copy()
    for i in later:
        left = np.flatnonzero(~certify_stack_block(P, lowest + PRUNE_MARGIN, model, setup, i))
        if left.size:
            block = _stack_block(P[left], model, setup, i)
            lowest[left] = np.minimum(lowest[left], _eigvalsh(block)[:, 0])
            del block  # before the next one is built
    return lowest.tolist()


def _eigvalsh(h: np.ndarray) -> np.ndarray:
    """Stacked ``eigvalsh`` of the blocks of a stack of momenta."""
    with threads(h):
        return np.linalg.eigvalsh(h)


@dataclass(frozen=True, eq=False)
class FiberSolve:
    """The eigendecomposition of every block of H(P), and what the consumers
    read from it.

    ``eigenvalues`` are those of all blocks, sorted, so E, E1, ``mult`` and
    the counts below a threshold mean what they mean for the dense H(P);
    E1 and ``mult`` are clustered at ``CLUSTER_TOL``.  ``h_norm`` is the
    largest |eigenvalue|.  Holds no eigenvector: the blocks and the
    eigenvectors are dropped once the residuals are taken.
    ``residuals`` has the worst eigenpair residual of the ``N_LOW_VECTORS``
    lowest eigenvectors of each head block (a partner's are its head's),
    the largest Hermiticity defect of a block and the theta residual:
    gamma ||theta s theta^-1 + s||_F / ||H||, s = sigma.v, which bounds
    ||theta H theta^-1 - H||_F / ||H|| and so how far the partners, taken
    as their heads' theta-images, are from the blocks of H(P).
    ``ground_pairing`` is (a bound on ||H theta v - E theta v|| / ||H||,
    |<v, theta v>|) for the ground vector v: its residual plus the theta
    residual.  ``sandwich``, which :func:`pffiber.bounds.sandwich_margins`
    reads, is (min eig(H(P) - L_-), min eig(L_+ - H(P)), ||H(P)||_2) at
    gamma < 1 and P along u (:func:`_along_u`), else None.
    """

    P: tuple
    eigenvalues: np.ndarray
    E: float
    E1: float | None
    mult: int
    h_norm: float
    residuals: dict
    ground_pairing: tuple
    sandwich: tuple | None


def solve_fiber(
    P, params_or_model, cache: EnergyCache | None = None
) -> FiberSolve:
    """The :class:`FiberSolve` record of H(P): :func:`solve_batch` of one
    momentum."""
    return solve_batch([P], params_or_model, cache)[0]


def _eigh(h: np.ndarray):
    """Stacked ``eigh`` of the blocks of a stack of momenta."""
    with threads(h):
        return np.linalg.eigh(h)


def solve_batch(P, params_or_model, cache: EnergyCache | None = None) -> list:
    """Build the blocks of H(P) once, diagonalize the head of each
    theta-pair once, keep a record, for each momentum of the (g, 3) stack P.

    A record in ``cache`` under the key of P is read, and a new one is
    stored there; E1 and the multiplicity of either are those clustered at
    ``CLUSTER_TOL`` when it was built; without a ``cache``, in one of the
    call's own.  The misses are solved together, one stacked ``eigh`` per
    theta-pair of the momenta that share a stabilizer (:func:`setup_stacks`,
    :func:`_records`); the residuals and the guards stay per momentum.
    The sandwich margins are taken from the same blocks when gamma < 1 and
    P is along u (:func:`_along_u`); a record of any other P has none, and
    :func:`pffiber.bounds.sandwich_margins` reads them from the record of
    |P| u.
    Raises ``EigensolverError``, naming the momentum, when an eigenpair
    residual exceeds ``RESIDUAL_TOL * ||H||``, and naming the momenta of
    its stack when LAPACK fails.
    """
    model = _as_model(params_or_model)
    cache = EnergyCache() if cache is None else cache
    return _batch(P, model, (cache.get_solve, cache.put),
                  lambda at_P, setup: _records(at_P, model, setup))


def _along_u(p) -> bool:
    """Whether P and |P| u share a cache key, so that the record of P is
    the record of the H(|P| u) of the sandwich statements."""
    from . import bounds  # it imports this module

    return _quantize_P(p) == _quantize_P(np.linalg.norm(p) * bounds.U_DIRECTION)


def _records(P, model, setup) -> list:
    """The :class:`FiberSolve` of each momentum of the (g, 3) P under one
    ``setup``, one theta-pair at a time (:func:`pair_heads`,
    :func:`_pair_values`).  Each head is dropped before the next is built;
    what it leaves are per-block values, reduced per momentum by
    :func:`_record`."""
    from . import bounds  # it imports this module

    along = np.array([_along_u(p) for p in P])
    diagonals = None
    if model.params.gamma < 1.0 and along.any():
        diagonals = bounds.comparison_diagonals(P[along], model)
    per_block, grounds = {}, [[] for _ in P]
    for i in pair_heads(setup):
        values, lowest = _pair_values(P, model, setup, i, along, diagonals)
        per_block.update(values)
        for found, candidate in zip(grounds, lowest):
            found.append(candidate)
    values = [per_block[i] for i in range(len(per_block))]
    return [_record(P, at, values, min(grounds[at]), along) for at in range(len(P))]


def _pair_values(P, model, setup, i: int, along, diagonals) -> tuple:
    """What :func:`_records` keeps of the theta-pair of head i of
    ``setup`` for the (g, 3) P: (values, lowest).

    ``values`` maps the index of each block of the pair to its
    per-momentum values: the eigenvalues, the worst residual of the
    ``N_LOW_VECTORS`` lowest eigenpairs, the Hermiticity defect, the pair's
    theta bound of :func:`theta_pair` and, with the
    :func:`pffiber.bounds.comparison_diagonals` of the momenta ``along`` u,
    the sandwich margins.  Only the head is built and solved: one stacked
    ``eigh`` and one stacked ``eigvalsh`` per margin.  The partner named by
    ``setup[3][i]``, whose block is the head's theta-image up to that
    bound, has all of these of the head (L_-+ are theta-invariant too).
    ``lowest`` has, per momentum, (E, index, pairing) of the head: the
    residual of its ground vector and the
    :func:`pffiber.hamiltonian.theta_pairing` overlap."""
    from . import bounds  # it imports this module

    partner, parts, theta = setup[3][i]
    h, bound = theta_pair(P, model, setup, i)
    vals, vecs = _eigh(h)
    x = vecs[..., :N_LOW_VECTORS].copy()
    del vecs
    res = np.linalg.norm(h @ x - x * vals[..., None, :N_LOW_VECTORS], axis=-2)
    margins = None
    if diagonals is not None:
        margins = bounds.block_margins(h if along.all() else h[along], _reps(parts),
                                       *diagonals)
    values = {
        "vals": vals,
        "eigenpair": np.max(res, axis=-1),
        "hermiticity": hermiticity_defect(h),
        "theta": bound,
        "margins": margins,
    }
    twin = setup[3][partner][1]  # the partner's columns
    lowest = [
        (vals[at, 0], i,
         (float(res[at, 0]), theta_pairing(theta, parts, twin, x[at, :, 0])))
        for at in range(len(P))
    ]
    return {i: values, partner: values}, lowest


def _record(P, at, values, ground, along) -> FiberSolve:
    """The :class:`FiberSolve` of momentum ``at`` of the (g, 3) P from the
    per-block ``values`` of :func:`_pair_values` and the (E, index,
    pairing) of its ground block; a momentum ``along`` u takes its sandwich
    margins from ``values``, any other has none."""
    p = P[at]
    eig_res = max(float(b["eigenpair"][at]) for b in values)
    vals = np.sort(np.concatenate([b["vals"][at] for b in values]))
    h_norm = float(max(abs(vals[0]), abs(vals[-1])))
    if eig_res > RESIDUAL_TOL * max(h_norm, 1e-300):
        raise EigensolverError(
            f"eigenpair residual {eig_res:.3e} exceeds {RESIDUAL_TOL:.1e} * ||H|| "
            f"at P = {tuple(float(x) for x in p)}"
        )
    triple = _ground_triple(vals, CLUSTER_TOL)
    # the bound on ||theta H theta^-1 - H||_F, relative
    theta_res = math.hypot(*(b["theta"][at] for b in values)) / max(h_norm, 1e-300)
    pairing_res, overlap = ground[2]
    margins = None
    if along[at] and values[0]["margins"] is not None:
        j = np.count_nonzero(along[:at])
        margins = tuple(
            float(min(b["margins"][m][j] for b in values)) for m in (0, 1)
        ) + (h_norm,)
    return FiberSolve(
        P=tuple(float(x) for x in p),
        eigenvalues=vals,
        E=triple[0],
        E1=triple[1],
        mult=triple[2],
        h_norm=h_norm,
        residuals={
            "eigenpair": eig_res,
            "hermiticity": max(float(b["hermiticity"][at]) for b in values),
            "theta_commutation": theta_res,
        },
        ground_pairing=(pairing_res / max(h_norm, 1e-300) + theta_res, overlap),
        sandwich=margins,
    )


def default_trial_set(model: FiberModel):
    """{0} united with the grid wavevectors, one per k-point: the rows of
    its first polarization."""
    return [np.zeros(3), *model.modes.k[model.modes.lam == 1]]


def delta_gap(
    P, params_or_model, trial_k_set=None, cache: EnergyCache | None = None
) -> float:
    """min over trial k of E(P-k) + omega(k) - E(P): the Delta of
    :func:`delta_search` at one momentum."""
    return delta_search([P], params_or_model, trial_k_set, cache)[0][0]


def delta_search(
    P, params_or_model, trial_k_set=None, cache: EnergyCache | None = None
) -> tuple:
    """(Delta, trials) at each momentum of the (g, 3) stack P: one
    :func:`ground_batch` of every P, then one of every trial momentum P - k
    that :func:`delta_trials` keeps; ``trials`` is what it returned.

    The k = 0 trial reads E(P), so Delta(P) <= m_ph is exact.  Of one
    trial per stabilizer orbit, a k != 0 is not solved when E(P - k) is
    proven to put its value above the k = 0 value by more than
    ``PRUNE_MARGIN``: first by the corollary bound, then by the operator
    certificate (:func:`delta_trials`).  Both need k = 0 in the trial set.
    Delta equals the minimum over all orbit trials bit for bit, and is
    monotone under trial-set enlargement.  The energies are read through
    ``cache``, so a momentum that a run has already solved, by either path,
    is not solved again.
    """
    model = _as_model(params_or_model)
    P = np.asarray(P, dtype=float).reshape(-1, 3)
    e_p = ground_batch(P, model, cache)
    trials = delta_trials(P, model, e_p, trial_k_set)
    shifted = [p - k for p, t in zip(P, trials) for k in t.kept if k.any()]
    energies = iter(ground_batch(shifted, model, cache))
    m_ph = model.params.m_ph
    out = []
    for e, t in zip(e_p, trials):
        best = np.inf
        for k in t.kept:
            e_shift = next(energies) if k.any() else e
            best = min(best, e_shift + float(dispersion(k, m_ph)) - e)
        out.append(float(best))
    return out, trials


class Trials(NamedTuple):
    """The orbit trials of one momentum: those :func:`delta_search` solves,
    and those that :func:`pffiber.certificate.certify_above` ruled out."""

    kept: list
    certified: list


def delta_trials(P, model: FiberModel, energies, trial_k_set=None) -> list:
    """The :class:`Trials` of each momentum of the (g, 3) P, whose ground
    energies are ``energies``: of the first member of each orbit of the
    trial set under the stabilizer of P (for R in the grid's point group,
    H(Rq) is unitarily equivalent to H(q)), those that two tiers of lower
    bounds on E(P - k) cannot rule out.

    A trial k != 0 can be ruled out only when k = 0 is in the set, whose
    value E(P) + omega(0) - E(P) is the ceiling of the minimum; k is ruled
    out when E(P - k) > tau = E(P) + ceiling - omega(k), with
    ``PRUNE_MARGIN`` added to the ceiling, far above the rounding of E.

    - The closed-form tier, free: the corollary bound
      E(q) >= gamma sqrt(q^2 + M^2) - eC', where it holds (gamma < 1,
      m_ph > 0, 1 - gamma - eC' >= 0).  eC' is
      :attr:`pffiber.bounds.BoundConstants.e_c_prime`.
    - The operator tier, on what the first keeps: the certificate
      E(q) > tau of :func:`pffiber.certificate.certify_above`, a diagonal
      test and, where it fails, a Schur complement on the states where it
      fails, which needs no hypothesis.
      Trials that it rules out are listed in ``certified``.
    """
    from . import bounds  # it imports this module

    if trial_k_set is None:
        trial_k_set = default_trial_set(model)
    m_ph, consts = model.params.m_ph, bounds.bound_constants(model)
    zero_in = any(not np.any(k) for k in trial_k_set)
    bounded = zero_in and consts.direction_free_holds()
    survivors, queries, levels = [], [], []
    for q, e in zip(P, energies):
        ceiling = e + float(dispersion(np.zeros(3), m_ph)) - e + PRUNE_MARGIN
        ks = orbit_representatives(trial_k_set, stabilizer(model.rotations, q))
        k_all = np.reshape(ks, (-1, 3))
        omega = dispersion(k_all, m_ph)
        low = consts.direction_free_envelope(q - k_all) + omega - e
        kept = [
            (k, w) for k, w, b in zip(ks, omega, low)
            if b <= ceiling or not (bounded and k.any())
        ]
        survivors.append([k for k, _ in kept])
        for k, w in kept:
            if zero_in and k.any():
                queries.append(q - k)
                levels.append(e + ceiling - w)
    proven = iter(certify_above(np.reshape(queries, (-1, 3)), levels, model))
    out = []
    for ks in survivors:
        ruled = [bool(k.any() and zero_in and next(proven)) for k in ks]
        out.append(Trials(
            kept=[k for k, r in zip(ks, ruled) if not r],
            certified=[k for k, r in zip(ks, ruled) if r],
        ))
    return out


def free_delta_gap(P, params: ModelParams, trial_k_set) -> float:
    """Closed-form e = 0 evaluation of the gap over the same trial set."""
    P = np.asarray(P, dtype=float)
    g, M, m_ph = params.gamma, params.M, params.m_ph
    e_p = g * np.sqrt(P @ P + M * M)
    best = np.inf
    for k in trial_k_set:
        k = np.asarray(k, dtype=float)
        val = (
            g * np.sqrt((P - k) @ (P - k) + M * M)
            + float(dispersion(k, m_ph))
            - e_p
        )
        best = min(best, val)
    return float(best)


@dataclass
class SpectrumReport:
    """Per-momentum spectral summary serialized by the sweep drivers."""

    P: tuple
    E: float
    E1: float | None
    ground_multiplicity: int
    delta: float
    sigma_minus: float | None = None
    eigencount_below_sigma: int | None = None
    residuals: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def convergence_study(P, params: ModelParams, ladder):
    """E(P) along a refinement ladder of (N_max, n_shells) rungs.

    Returns a list of dicts with the rung spec, dimension, energy, and the
    difference to the previous rung.  Reported as a trend; truncated E(P) is
    not proven monotone under refinement.
    """
    rows = []
    prev = None
    for n_max, n_shells in ladder:
        rung = params.replace(N_max=n_max, n_shells=n_shells)
        model = _as_model(rung)
        e0 = ground_data(P, model)
        rows.append(
            {
                "N_max": n_max,
                "n_shells": n_shells,
                "dim": 2 * model.dim,
                "E": e0,
                "diff_prev": None if prev is None else e0 - prev,
            }
        )
        prev = e0
    return rows
