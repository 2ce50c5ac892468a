"""Low-lying spectra, degeneracy clusters, and the one-photon gap function.

The ground energy E(P) is the bottom of the spectrum of the fiber
Hamiltonian; E1(P) is the first level strictly above the ground cluster; the
gap function is

    Delta(P) = min over trial k of  E(P - k) + omega(k) - E(P),

approximated on a finite trial set that always contains k = 0 (so
Delta(P) <= omega(0) = m_ph exactly) and the grid wavevectors.

Both solves work on the blocks of H(P) under its grid stabilizer
(:func:`pffiber.hamiltonian.block_stacks`): when an element of the grid's
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
verify checks).  It runs ``eigh`` on every block, so the theta-pairs are
compared rather than assumed, and keeps a small :class:`FiberSolve` record
-- eigenvalues, residuals, sandwich margins -- then drops the blocks and the
eigenvectors.  The record is kept in the :class:`EnergyCache` under its key,
so one run solves each key once.  :func:`ground_data` is the
eigenvalues-only path (``eigvalsh``) used for the trial momenta of
Delta(P), the convergence ladder and the verify checks that need E(P) only:
it solves one block per theta-pair and counts its eigenvalues twice.  Both
call LAPACK through ``numpy.linalg`` only, so one BLAS thread pool serves.

Both solve many momenta at once: :func:`solve_batch`, :func:`ground_batch`
and :func:`delta_gaps` take a stack of momenta, and the single-momentum
functions are batches of one.  A batch looks each momentum up in the cache,
solves each distinct missing key once, and builds the misses in the stacks
of :func:`pffiber.hamiltonian.block_stacks`: momenta that share a
stabilizer share everything but the diagonal of sigma.v, so each block of
such a group is one stacked ``eigh`` or ``eigvalsh``.  LAPACK runs the same
routine on each matrix of a stack, and the residuals and guards stay per
momentum, so every result equals that of the momentum alone bit for bit.

For R in the grid's point group G, rotations and improper elements alike,
H(R q) is unitarily equivalent to H(q).  If R also fixes P, the trials k
and R k give the same value of E(P - k) + omega(k), so :func:`delta_gap`
solves one trial per orbit of the stabilizer of P.  The reduction is exact:
the skipped trials differ from the kept one only by rounding.  Of those
orbits, the ones whose value the corollary lower bound on E(P - k) puts
above the k = 0 value are not solved either (:func:`delta_trials`).
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field, asdict

import numpy as np

from .fock import hermiticity_defect
from .hamiltonian import FiberModel, _as_model, block_stacks
from .modes import ModelParams, dispersion, orbit_representatives, stabilizer

DEFAULT_CLUSTER_TOL = 1e-8
P_QUANTUM = 1e-12
N_LOW_VECTORS = 4
RESIDUAL_TOL = 1e-9
# a Delta trial is skipped only when its lower bound exceeds the k = 0 value
# by more than this, far above the rounding of either
PRUNE_MARGIN = 1e-9
CACHE_FORMAT = 9


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


def cluster_degeneracy(eigenvalues, scale_tol: float = DEFAULT_CLUSTER_TOL):
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
    """Map (params fingerprint, cluster_tol, quantized P) -> (E, E1, mult).

    E1 and the multiplicity depend on the clustering tolerance, so it is part
    of the key.  Entries come from :func:`solve_fiber` (``eigh``) or
    :func:`ground_data` (``eigvalsh``); the two agree to rounding, and a
    solve_fiber entry replaces an existing one so that every consumer of
    that momentum reads the E of its report.  ``solves`` holds the
    FiberSolve records under the same keys, in memory only; ``hits`` and
    ``misses`` count lookups of both.  The triples are optionally persisted
    to a JSON file tagged with ``CACHE_FORMAT``; floats round-trip losslessly
    (repr serialization), so a cache hit equals recomputation bit for bit at
    a fixed build.  The file is replaced atomically on save; a corrupt file
    or one of another format is reported on stderr and ignored.
    """

    def __init__(self, path=None):
        self._data = {}
        self.solves = {}
        self.path = path
        self.hits = 0
        self.misses = 0
        if path is not None:
            self._data = self._load(path)

    @staticmethod
    def _load(path) -> dict:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
            if raw.get("format") != CACHE_FORMAT:
                raise ValueError(
                    f"format {raw.get('format')!r}, expected {CACHE_FORMAT}"
                )
            return {
                tuple(json.loads(k)): tuple(v) for k, v in raw["entries"].items()
            }
        except FileNotFoundError:
            return {}
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            print(f"warning: ignoring cache {path}: {exc}", file=sys.stderr)
            return {}

    @staticmethod
    def key(params: ModelParams, P, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> tuple:
        return (
            params.fingerprint,
            f"{float(cluster_tol):.17g}",
        ) + _quantize_P(P)

    def _lookup(self, store: dict, key):
        got = store.get(key)
        self.hits += got is not None
        self.misses += got is None
        return got

    def get(self, key):
        return self._lookup(self._data, key)

    def put(self, key, value):
        self._data[key] = value

    def get_solve(self, key):
        return self._lookup(self.solves, key)

    def put_solve(self, key, solve):
        """Store a :class:`FiberSolve` record and its (E, E1, mult)."""
        self.put(key, (solve.E, solve.E1, solve.mult))
        self.solves[key] = solve

    def save(self):
        """Write the cache atomically: a temp file beside it, then a rename.

        Entries are written in sorted key order, so the file does not depend
        on the order in which they were filled."""
        if self.path is None:
            return
        entries = sorted(self._data.items())
        raw = {
            "format": CACHE_FORMAT,
            "entries": {json.dumps(list(k)): list(v) for k, v in entries},
        }
        folder = os.path.dirname(os.path.abspath(self.path))
        fd, tmp = tempfile.mkstemp(
            dir=folder, prefix=os.path.basename(self.path) + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(raw, fh)
            os.replace(tmp, self.path)
        except BaseException:
            os.unlink(tmp)
            raise


def _ground_triple(vals, cluster_tol: float) -> tuple:
    """(E, E1, ground multiplicity) from ascending eigenvalues."""
    mult = cluster_degeneracy(vals, cluster_tol)[0][1]
    e1 = float(vals[mult]) if len(vals) > mult else None
    return float(vals[0]), e1, mult


def _batch(P, model, cluster_tol, lookup, one_per_pair, solve_stack) -> list:
    """The value at each momentum of the (g, 3) stack P, under its cache key
    at ``cluster_tol``.

    ``lookup`` is None or the (get, put) of the cache.  Each momentum is
    looked up once, as one call per momentum would: the first lookup of a
    key may miss, and the later ones find what the first stored.  The
    distinct misses are built in the stacks of :func:`block_stacks` and
    ``solve_stack(P, blocks)`` gives the values of each stack.
    """
    P = np.asarray(P, dtype=float).reshape(-1, 3)
    keys = [EnergyCache.key(model.params, p, cluster_tol) for p in P]
    get, put = lookup or (None, None)
    first = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    found, missing = {}, []
    for key, i in first.items():
        hit = None if get is None else get(key)
        if hit is None:
            missing.append(i)
        else:
            found[key] = hit
    todo = P[missing]
    for index, blocks in block_stacks(todo, model, one_per_pair):
        values = solve_stack(todo[index], blocks)
        del blocks  # freed before the next stack is built, not after
        for at, value in zip(index, values):
            found[keys[missing[at]]] = value
            if put is not None:
                put(keys[missing[at]], value)
    if get is not None:
        for i, key in enumerate(keys):
            if i != first[key]:
                get(key)
    return [found[key] for key in keys]


def ground_data(
    P,
    params_or_model,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
    cache: EnergyCache | None = None,
):
    """(E, E1, ground multiplicity) of the fiber Hamiltonian at momentum P:
    :func:`ground_batch` of one momentum."""
    return ground_batch([P], params_or_model, cluster_tol, cache)[0]


def ground_batch(
    P,
    params_or_model,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
    cache: EnergyCache | None = None,
) -> list:
    """(E, E1, ground multiplicity) at each momentum of the (g, 3) stack P.

    E is the smallest eigenvalue; the multiplicity comes from greedy
    clustering at ``cluster_tol``; E1 is the smallest eigenvalue strictly
    above the ground cluster (None if the truncation holds no second level).
    Eigenvalues only, of one block of :func:`block_stacks` per
    theta-pair: the partner has the same spectrum, so the eigenvalues of a
    block that theta maps onto another are counted twice, and those of a
    block it maps onto itself once.  Each distinct key is solved once, and
    the misses are solved together: one stacked ``eigvalsh`` per block of
    the momenta that share a stabilizer (:func:`block_stacks`), which runs
    the LAPACK call of a single momentum on each matrix.
    """
    model = _as_model(params_or_model)
    lookup = None if cache is None else (cache.get, cache.put)
    return _batch(
        P, model, cluster_tol, lookup, True,
        lambda _, blocks: _ground_triples(blocks, cluster_tol),
    )


def _ground_triples(blocks, cluster_tol: float) -> list:
    """The (E, E1, mult) of each momentum of a stack from its stream of
    blocks: one ``eigvalsh`` per block, each block dropped before the next
    is built."""
    spectra = []
    for block in blocks:
        vals = np.linalg.eigvalsh(block.h)
        spectra += [vals] if block.partner == block.index else [vals, vals]
        del block  # before the next one is built
    return [
        _ground_triple(np.sort(np.concatenate([v[at] for v in spectra])), cluster_tol)
        for at in range(len(spectra[0]))
    ]


@dataclass(frozen=True, eq=False)
class FiberSolve:
    """The eigendecomposition of every block of H(P), and what the consumers
    read from it.

    ``eigenvalues`` are those of all blocks, sorted, so E, E1, ``mult`` and
    the counts below a threshold mean what they mean for the dense H(P);
    ``h_norm`` is the largest |eigenvalue|.  Holds no eigenvector: the
    blocks and the eigenvectors are dropped once the residuals are taken.
    ``residuals`` has the worst eigenpair residual of the ``N_LOW_VECTORS``
    lowest eigenvectors of each block, the largest Hermiticity defect of a
    block and the relative theta-commutation residual, each block against
    the theta-image of its partner.  ``ground_pairing`` is the
    (theta-partner residual, |<v, theta v>|) of the ground vector.
    ``sandwich`` is (lower, upper, scale) of
    :func:`pffiber.bounds.sandwich_margins`, or None at gamma >= 1.
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
    P,
    params_or_model,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
    cache: EnergyCache | None = None,
) -> FiberSolve:
    """The :class:`FiberSolve` record of H(P): :func:`solve_batch` of one
    momentum."""
    return solve_batch([P], params_or_model, cluster_tol, cache)[0]


def _eigh(h: np.ndarray, P: np.ndarray):
    """Stacked ``eigh`` of the blocks of the momenta P."""
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigensolverError(
            f"dense eigensolver failed at one of P = {P.tolist()}: {exc}"
        ) from exc


def solve_batch(
    P,
    params_or_model,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
    cache: EnergyCache | None = None,
) -> list:
    """Build the blocks of H(P) once, diagonalize each once, keep a record,
    for each momentum of the (g, 3) stack P.

    A record in ``cache`` under the key of (P, cluster_tol) is returned as
    it is; a new one is stored there with its (E, E1, mult).  The misses are
    solved together, one stacked ``eigh`` per block of the momenta that
    share a stabilizer (:func:`block_stacks`); the residuals and the guards
    stay per momentum.  The sandwich margins are taken when gamma < 1, from
    the same blocks when P == |P| u.  Raises ``EigensolverError``, naming
    the momentum, when an eigenpair residual exceeds
    ``RESIDUAL_TOL * ||H||``.
    """
    model = _as_model(params_or_model)
    lookup = None if cache is None else (cache.get_solve, cache.put_solve)
    return _batch(
        P, model, cluster_tol, lookup, False,
        lambda at_P, blocks: _records(at_P, model, blocks, cluster_tol),
    )


def _pairs(blocks):
    """The theta-pairs of a stream of :func:`block_stacks`: (block,) for a
    block that theta maps onto itself, else (block, partner).  Each pair is
    built when it is asked for."""
    blocks = iter(blocks)
    for block in blocks:
        if block.partner == block.index:
            yield (block,)
        else:
            yield block, next(blocks)
        del block  # before the next one is built


def _records(P, model, blocks, cluster_tol) -> list:
    """The :class:`FiberSolve` of each momentum of the (g, 3) P from its
    stream of blocks, one theta-pair at a time (:func:`_pair_values`).
    Each pair is dropped before the next is built; what it leaves are
    per-block values, reduced per momentum by :func:`_record`.  The
    momenta not along u take their sandwich margins from the stream of
    H(|P|u)."""
    from . import bounds  # it imports this module

    along = np.array(
        [np.array_equal(p, np.linalg.norm(p) * bounds.U_DIRECTION) for p in P]
    )
    consts = bounds.bound_constants(model) if model.params.gamma < 1.0 else None
    diagonals = None
    if consts is not None and along.any():
        diagonals = bounds.comparison_diagonals(P[along], model, consts)
    per_block, grounds = {}, [[] for _ in P]
    for pair in _pairs(blocks):
        values, lowest = _pair_values(P, pair, along, diagonals)
        del pair
        per_block.update(values)
        for found, candidate in zip(grounds, lowest):
            found.append(candidate)
    margins = [None] * len(P)
    if consts is not None:
        rest = np.flatnonzero(~along)
        P_u = [np.linalg.norm(P[at]) * bounds.U_DIRECTION for at in rest]
        for index, stream in block_stacks(P_u, model):
            found = bounds.stack_margins(P[rest[index]], model, stream, consts)
            for j, at in enumerate(rest[index]):
                margins[at] = tuple(float(m[j]) for m in found)
    values = [per_block[i] for i in range(len(per_block))]
    return [
        _record(P, at, values, min(grounds[at]), margins[at], along, cluster_tol)
        for at in range(len(P))
    ]


def _pair_values(P, pair, along, diagonals) -> tuple:
    """What :func:`_records` keeps of one theta-pair of block stacks of the
    (g, 3) P: (values, lowest).

    ``values`` maps the index of each block to its per-momentum values:
    the eigenvalues of one stacked ``eigh``, the worst residual of the
    ``N_LOW_VECTORS`` lowest eigenpairs, the Hermiticity defect, the
    Frobenius norm, the theta defect of its partner's image onto it and,
    with the :func:`pffiber.bounds.comparison_diagonals` of the momenta
    ``along`` u, their sandwich margins, one stacked ``eigvalsh`` each.
    ``lowest`` has, per momentum, (E, index, pairing) of the lowest block
    of the pair, ties to the lower index, with the
    :func:`pffiber.kramers.theta_pairing` of its ground vector."""
    from . import bounds, kramers  # both modules import this one

    low, per_block = {}, {}
    for b in pair:
        vals, vecs = _eigh(b.h, P)
        low[b.index] = vecs[..., :N_LOW_VECTORS].copy()
        del vecs
        x = low[b.index]
        res = np.linalg.norm(b.h @ x - x * vals[..., None, :N_LOW_VECTORS], axis=-2)
        per_block[b.index] = {
            "vals": vals,
            "eigenpair": np.max(res, axis=-1),
            "hermiticity": hermiticity_defect(b.h),
            "norm": kramers.frobenius(b.h),
            "margins": None,
        }
        if diagonals is not None:
            h = b.h if along.all() else b.h[along]
            per_block[b.index]["margins"] = bounds.block_margins(
                h, b.rows, *diagonals
            )
    first = [per_block[b.index]["vals"][:, 0] for b in pair]
    which = np.argmin(first, axis=0)  # the first block of the pair on ties
    lowest = [None] * len(P)
    for i, (b, twin) in enumerate(zip(pair, pair[::-1])):
        per_block[twin.index]["theta"] = kramers.theta_defect(b.h, twin.h, b.theta)
        for at in np.flatnonzero(which == i):
            lam = first[i][at]
            lowest[at] = (lam, b.index, kramers.theta_pairing(
                b, twin, twin.h[at], lam, low[b.index][at, :, 0]
            ))
    return per_block, lowest


def _record(P, at, values, ground, margins, along, cluster_tol) -> FiberSolve:
    """The :class:`FiberSolve` of momentum ``at`` of the (g, 3) P from the
    per-block ``values`` of :func:`_pair_values`, the (E, index, pairing)
    of its ground block and, for a momentum not along u, its sandwich
    margins; a momentum along u takes them from ``values``."""
    p = P[at]
    eig_res = max(float(b["eigenpair"][at]) for b in values)
    vals = np.sort(np.concatenate([b["vals"][at] for b in values]))
    h_norm = float(max(abs(vals[0]), abs(vals[-1])))
    if eig_res > RESIDUAL_TOL * max(h_norm, 1e-300):
        raise EigensolverError(
            f"eigenpair residual {eig_res:.3e} exceeds {RESIDUAL_TOL:.1e} * ||H|| "
            f"at P = {tuple(float(x) for x in p)}"
        )
    triple = _ground_triple(vals, cluster_tol)
    theta_res = math.hypot(*(b["theta"][at] for b in values)) / math.hypot(
        *(b["norm"][at] for b in values)
    )
    pairing_res, overlap = ground[2]
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
        ground_pairing=(pairing_res / max(h_norm, 1e-300), overlap),
        sandwich=margins,
    )


def default_trial_set(model: FiberModel):
    """{0} united with the grid wavevectors, one per k-point: the rows of
    its first polarization."""
    return [np.zeros(3), *model.modes.k[model.modes.lam == 1]]


def delta_gap(
    P,
    params_or_model,
    trial_k_set=None,
    cache: EnergyCache | None = None,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> float:
    """min over trial k of E(P-k) + omega(k) - E(P): :func:`delta_gaps` of
    one momentum."""
    return delta_gaps([P], params_or_model, trial_k_set, cache, cluster_tol)[0]


def delta_gaps(
    P,
    params_or_model,
    trial_k_set=None,
    cache: EnergyCache | None = None,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> list:
    """Delta at each momentum of the (g, 3) stack P: one :func:`ground_batch`
    of every P, then one of every trial momentum P - k that
    :func:`delta_trials` keeps.

    The k = 0 trial reads E(P), so Delta(P) <= m_ph is exact.  Of one
    trial per stabilizer orbit, a k != 0 is not solved when its lower bound
    gamma sqrt(|P - k|^2 + M^2) - eC' + omega(k) - E(P) exceeds the k = 0
    value by more than ``PRUNE_MARGIN``, which needs k = 0 in the trial
    set, gamma < 1, m_ph > 0 and 1 - gamma - eC' >= 0.  Delta equals the
    minimum over all orbit trials bit for bit, and is monotone under
    trial-set enlargement.
    E does not depend on ``cluster_tol``; it selects the cache entries, so a
    run that solves at its own tolerance reads the energies it already has.
    """
    model = _as_model(params_or_model)
    P = np.asarray(P, dtype=float).reshape(-1, 3)
    e_p = [t[0] for t in ground_batch(P, model, cluster_tol, cache)]
    trials = delta_trials(P, model, e_p, trial_k_set)
    shifted = [p - k for p, ks in zip(P, trials) for k in ks if k.any()]
    energies = iter(ground_batch(shifted, model, cluster_tol, cache))
    m_ph = model.params.m_ph
    out = []
    for e, ks in zip(e_p, trials):
        best = np.inf
        for k in ks:
            e_shift = next(energies)[0] if k.any() else e
            best = min(best, e_shift + float(dispersion(k, m_ph)) - e)
        out.append(float(best))
    return out


def delta_trials(P, model: FiberModel, energies, trial_k_set=None) -> list:
    """The trial wavevectors that :func:`delta_gaps` solves at each momentum
    of the (g, 3) P, whose ground energies are ``energies``: the first
    member of each orbit of the trial set under the stabilizer of P (for R
    in the grid's point group, H(Rq) is unitarily equivalent to H(q)), less
    the trials k != 0 that the corollary bound rules out.  eC' is
    :attr:`pffiber.bounds.BoundConstants.e_c_prime`.
    """
    from . import bounds  # it imports this module

    if trial_k_set is None:
        trial_k_set = default_trial_set(model)
    m_ph, consts = model.params.m_ph, bounds.bound_constants(model)
    prune = consts.direction_free_holds() and any(not np.any(k) for k in trial_k_set)
    out = []
    for q, e in zip(P, energies):
        ceiling = e + float(dispersion(np.zeros(3), m_ph)) - e + PRUNE_MARGIN
        ks = orbit_representatives(trial_k_set, stabilizer(model.rotations, q))
        k_all = np.reshape(ks, (-1, 3))
        low = consts.direction_free_envelope(q - k_all) + dispersion(k_all, m_ph) - e
        out.append(
            [k for k, b in zip(ks, low) if b <= ceiling or not (prune and k.any())]
        )
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
        e0, _, _ = ground_data(P, model)
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
