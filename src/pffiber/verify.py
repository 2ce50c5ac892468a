"""Verification suite: every spectral claim checked at desk scale.

Each check is a named function returning a :class:`CheckResult`; the CLI
``verify`` subcommand and the acceptance test module drive the same
implementations.  Hard checks gate the exit code; soft checks (trend and
deviation reports) are informational.

One rule decides every check.  A check returns its comparisons, each a
(label, value, tol) triple, and a comparison holds iff its value is finite
and at most its tolerance; the check passes iff every comparison holds.  A
lower bound enters as its deficit (bound - value, or -margin), and a count
of violations or of failed exact conclusions enters against 0.  The verdict
and the detail text are formed from the comparisons by :class:`CheckResult`
alone, so a NaN or an infinity anywhere fails its check.

The checks cover: the free-theory enumeration oracle, the Clifford and Pauli
algebra identities, the square-root cross-validation, time-reversal symmetry
and exact two-fold ground degeneracy, the operator sandwich
L_- <= H <= L_+ with the min-max eigenvalue count, gap uniformity with
explicit constants, the closed-form energy envelope, the coupling-estimate
property suites, operator monotonicity, and the parity symmetry of E(P) with
negative controls.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import bounds as bnd
from . import kramers as kra
from .blas import threads
from .config import RunConfig
from .fock import dgamma_diag, enumerate_basis
from .hamiltonian import (
    QuadratureNotConverged,
    build_D,
    build_H,
    build_H_SL,
    build_model,
    build_T,
    build_T_expanded,
    h0_diag,
    hf_spinor,
    interaction_norm,
    kinetic_root,
    lipschitz_ratio,
    op_sqrt_eig,
    op_sqrt_quad,
    sigma_dot_v,
    spin_curl_mismatch,
)
from .modes import ball_volume, build_mode_set, form_factors
from .spectral import (
    CLUSTER_TOL,
    EigensolverError,
    EnergyCache,
    cluster_degeneracy,
    convergence_study,
    default_trial_set,
    delta_search,
    free_delta_gap,
    ground_batch,
    ground_data,
    solve_batch,
)

# The tolerances of the checks, fixed in code so that no configuration can
# loosen them.  The sandwich and envelope comparisons (5, 7, 8, 9, inv2) read
# ``bounds.SANDWICH_TOL``, and check 4 clusters at ``spectral.CLUSTER_TOL``.
FREE_ORACLE_TOL = 1e-10  # check 1, relative to the largest |eigenvalue|
CLIFFORD_TOL = 1e-10  # check 2a
PAULI_IDENTITY_TOL = 1e-12  # check 2b, relative
SPIN_CURL_TOL = 1e-12  # check 2b, i(v^v) against the field curl
SQRT_CROSSVAL_TOL = 1e-8  # check 3
THETA_COMM_TOL = kra.THETA_COMM_TOL  # check 4, as the Kramers certificate
GAP_SPREAD_TOL = 0.10  # check 7, relative spread of Sigma_- - upper envelope
DELTA_FREE_TOL = 1e-10  # check 8, the e = 0 Delta against its closed form
DELTA_CEILING_TOL = 1e-12  # check 8, Delta - m_ph
ENVELOPE_WIDTH_TOL = 1e-12  # check 9, the envelope's width at e = 0
WIDTH_SLOPE_TOL = 0.05  # check 9, relative drift of width / e
PROPERTY_SUITE_TOL = 1e-10  # check 10a
MONOTONE_TOL = 1e-10  # check 10b, -min eig(sqrt(T) - sqrt(S)) / ||sqrt(T)||
INTERCEPT_TOL = 1e-10  # check 10c, the interaction norm at e = 0
NORM_SLOPE_TOL = 0.05  # check 10c, relative drift of norm / e
RELATIVE_BOUND_TOL = 1.0  # check 10c, the interaction norm at e*
PARITY_TOL = 1e-10  # check 11a
CONTROL_FLOOR = 1e-2  # check 11b, least residual that flags a broken model
REALITY_TOL = 1e-12  # check inv1
WEIGHT_SUM_TOL = 1e-12  # check inv3, relative
TRIAL_MONOTONE_TOL = 1e-12  # check inv4, Delta(full) - Delta(subset)
LIPSCHITZ_TOL = 50.0  # check inv5, the largest ratio
LIPSCHITZ_SPREAD_TOL = 20.0  # check inv5, largest over least positive ratio

# check 10a runs as many rounds at a time as fill about this many bytes with
# their eight complex vectors each (phi, psi and their six images under a(f),
# a(g) and the transposes), 128 bytes per basis state and round
COUPLING_CHUNK_BYTES = 64 * 1024


@dataclass
class CheckResult:
    """A check's comparisons and the verdict and text formed from them.

    Each comparison is a (label, value, tol) triple, or (label, value, tol,
    at) where ``at`` names the location of the value, kept as a dict; it
    holds iff its value is finite and at most its tolerance, and the check
    passes iff every comparison holds.  ``detail`` lists the comparisons,
    each failed one with its location, then the ``note``."""

    name: str
    comparisons: list
    note: InitVar[str] = ""
    hard: bool = True
    passed: bool = field(init=False)
    detail: str = field(init=False)

    def __post_init__(self, note: str):
        self.comparisons = [dict(label=k, value=v, tol=t, at=at[0] if at else None)
                            for k, v, t, *at in self.comparisons]
        held = [bool(math.isfinite(c["value"]) and c["value"] <= c["tol"])
                for c in self.comparisons]
        self.passed = all(held)
        texts = [
            f"{c['label']}: {_fmt(c['value'], '.3e')} {'<=' if h else 'NOT <='} "
            f"{_fmt(c['tol'], '.1e')}" + ("" if h or c["at"] is None else f" at {c['at']}")
            for c, h in zip(self.comparisons, held)
        ]
        self.detail = "; ".join(texts + ([note] if note else []))

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        if not self.hard:
            status = "info" if self.passed else "WARN"
        return f"[{status}] {self.name}: {self.detail}"


def _fmt(x, spec: str) -> str:
    return str(x) if isinstance(x, int) else format(x, spec)


def _at(e: float, P) -> str:
    """A location of the sweep: the coupling and |P|."""
    return f"e={e}, |P|={float(np.linalg.norm(P)):.4f}"


class VerifyContext:
    """Shared state of one verification run: RNG stream and energy cache."""

    def __init__(self, cfg: RunConfig, cache: EnergyCache | None = None):
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.verify.seed)
        self.cache = cache if cache is not None else EnergyCache()

    def momenta(self):
        return self.cfg.momenta()

    def coupling_ladder(self):
        return self.cfg.verify.e_values

    def params_at(self, e: float):
        return self.cfg.params.replace(e=e)

    def solves(self, model):
        """The run's one solve of H(P) at each momentum of the sweep, solved
        as one batch."""
        return solve_batch(self.momenta(), model, self.cache)

    def energies(self, momenta, model) -> list:
        """E at each momentum, one batch through the run's cache."""
        return ground_batch(momenta, model, self.cache)

    def deltas(self, momenta, model, trial_k_set=None) -> list:
        """Delta at each momentum, one batch through the run's cache."""
        return delta_search(momenta, model, trial_k_set, self.cache)[0]


def _random_P(rng, p_max: float = 2.0):
    return rng.uniform(-p_max / 2, p_max / 2, size=3)


def _hypotheses_guard(ctx: VerifyContext, name: str) -> CheckResult | None:
    """Comparison-operator facts hold under gamma < 1, m_ph > 0 only."""
    if ctx.cfg.params.gap_hypotheses_met():
        return None
    return CheckResult(
        name,
        [],
        "hypotheses not met (need gamma < 1 and m_ph > 0); "
        "comparison-operator check skipped",
    )


def _worst(label: str, defects, tol: float, where=None) -> list:
    """The comparison of the largest of ``defects`` with ``tol``, NaN if any
    defect is (Python's max would drop a NaN that is not its first
    argument), at its entry of ``where`` if given; no comparison for no
    defects, such as over an empty coupling ladder."""
    defects = np.asarray(defects, dtype=float)
    if not defects.size:
        return []
    i = int(np.argmax(defects))  # the first NaN if any
    return [(label, float(defects[i]), tol, None if where is None else where[i])]


def _count(label: str, violations: list) -> tuple:
    """The count of ``violations`` (their locations) against 0, at the first."""
    return (label, len(violations), 0, violations[0] if violations else None)


def _drift(ratios) -> float:
    """Relative drift (max - min) / max; 0 if the max is 0, NaN if any ratio is."""
    top = float(np.max(ratios))
    return (top - float(np.min(ratios))) / top if top else 0.0


# ----------------------------------------------------------------------
# criterion 1: free-theory enumeration oracle
# ----------------------------------------------------------------------

def check_free_oracle(ctx: VerifyContext) -> CheckResult:
    model = build_model(ctx.params_at(0.0))
    defects = []
    for P, solve in zip(ctx.momenta(), ctx.solves(model)):
        fock_levels = h0_diag(P, model)
        closed = np.sort(np.concatenate([fock_levels, fock_levels]))
        # on the scale of the spectrum, as the sandwich and theta checks are
        defects.append(np.max(np.abs(solve.eigenvalues - closed))
                       / max(solve.h_norm, 1e-300))
    return CheckResult(
        "free-theory oracle",
        _worst("max |eig - closed form| / max |eig|", defects, FREE_ORACLE_TOL),
        "two-fold spin degeneracy enforced by the duplicated enumeration",
    )


# ----------------------------------------------------------------------
# criterion 2: Clifford / Pauli algebra identities
# ----------------------------------------------------------------------

def check_clifford_square(ctx: VerifyContext) -> CheckResult:
    defects = []
    for _ in range(ctx.cfg.verify.n_random_draws):
        e = ctx.rng.uniform(0.0, ctx.cfg.verify.e_max_random)
        P = _random_P(ctx.rng)
        model = build_model(ctx.params_at(e))
        d = build_D(P, model)
        t = build_T(P, model)
        block = np.kron(
            np.eye(2), t + model.params.M**2 * np.eye(t.shape[0])
        )
        with threads(d):
            d2 = d @ d
        defects.append(np.linalg.norm(d2 - block) / np.linalg.norm(d2))
    return CheckResult(
        "Clifford square identity",
        _worst("max rel Frobenius defect of D(P)^2 = (T+M^2) oplus (T+M^2)",
               defects, CLIFFORD_TOL),
    )


def check_pauli_identity(ctx: VerifyContext) -> CheckResult:
    defects, curl_defects = [], []
    for _ in range(ctx.cfg.verify.n_random_draws):
        e = ctx.rng.uniform(0.0, ctx.cfg.verify.e_max_random)
        P = _random_P(ctx.rng)
        model = build_model(ctx.params_at(e))
        td = build_T(P, model)
        te = build_T_expanded(P, model)
        defects.append(np.linalg.norm(td - te) / np.linalg.norm(td))
        curl_defects.append(spin_curl_mismatch(P, model)[0])
    return CheckResult(
        "Pauli expansion identity",
        _worst("direct vs expanded T(P), rel", defects, PAULI_IDENTITY_TOL)
        + _worst("i(v^v) = field curl below the truncation edge",
                 curl_defects, SPIN_CURL_TOL),
    )


# ----------------------------------------------------------------------
# criterion 3: square-root cross-validation
# ----------------------------------------------------------------------

def check_sqrt_crossval(ctx: VerifyContext) -> CheckResult:
    tol = SQRT_CROSSVAL_TOL
    defects, stalled = [], ""
    for _ in range(ctx.cfg.verify.n_sqrt_draws):
        e = ctx.rng.uniform(0.0, ctx.cfg.verify.e_max_random)
        P = _random_P(ctx.rng)
        model = build_model(ctx.params_at(e))
        m2 = model.params.M**2
        h = build_T(P, model) + m2 * np.eye(2 * model.dim)
        try:
            quad = op_sqrt_quad(h, tol=tol, scale=m2)
        except QuadratureNotConverged as exc:  # a failure, not a crash
            defects.append(math.inf)
            stalled = str(exc)
            continue
        # the quadrature checks the reference root and the root H is built from
        roots = (op_sqrt_eig(h), kinetic_root(sigma_dot_v(P, model), model.params.M))
        defects += [np.max(np.abs(quad - r)) for r in roots]
    return CheckResult(
        "square-root cross-validation",
        _worst("max |quadrature - spectral| on T(P)+M^2, spectral from "
               "T(P)+M^2 and from sigma.v", defects, tol),
        stalled,
    )


# ----------------------------------------------------------------------
# criterion 4: Kramers degeneracy
# ----------------------------------------------------------------------

def check_kramers(ctx: VerifyContext) -> CheckResult:
    certify = ctx.cfg.params.gap_hypotheses_met()
    model0 = build_model(ctx.cfg.params)
    residuals, odd, uncertified = [], [], []
    for e in [v for v in ctx.coupling_ladder() if v > 0.0]:
        model = build_model(ctx.params_at(e))
        for P, solve in zip(ctx.momenta(), ctx.solves(model)):
            residuals.append(solve.residuals["theta_commutation"])
            clusters = cluster_degeneracy(solve.eigenvalues, CLUSTER_TOL)
            if any(c[1] % 2 for c in clusters):
                odd.append(_at(e, P))
            if certify:
                cert = kra.kramers_certificate(
                    P, model, e_star=ctx.cfg.verify.e_star, cache=ctx.cache
                )
                if cert.conclusion != "exactly two-fold":
                    uncertified.append(f"{_at(e, P)}: {cert.conclusion}")
    return CheckResult(
        "Kramers degeneracy",
        [("theta^2 = -1 defect", kra.theta_squared_sign(model0.dim), 0.0),
         *_worst("max commutation residual", residuals, THETA_COMM_TOL),
         _count("momenta with an odd cluster", odd),
         _count("ground levels not certified exactly two-fold", uncertified)],
        "" if certify else "certificate skipped (hypotheses not met)",
    )


# ----------------------------------------------------------------------
# criteria 5 + 6: operator sandwich and min-max counting
# ----------------------------------------------------------------------

def check_sandwich(ctx: VerifyContext) -> CheckResult:
    if (guard := _hypotheses_guard(ctx, "operator sandwich")) is not None:
        return guard
    deficits = []
    for e in ctx.coupling_ladder():
        model = build_model(ctx.params_at(e))
        for solve in ctx.solves(model):
            lower, upper, scale = solve.sandwich
            deficits += [-lower / scale, -upper / scale]
    return CheckResult(
        "operator sandwich",
        _worst("-min eig margin (both sides, scaled)", deficits, bnd.SANDWICH_TOL),
    )


def check_counting(ctx: VerifyContext) -> CheckResult:
    if (guard := _hypotheses_guard(ctx, "min-max counting")) is not None:
        return guard
    bad = []
    for e in ctx.coupling_ladder():
        model = build_model(ctx.params_at(e))
        consts = bnd.bound_constants(model)
        for P, solve in zip(ctx.momenta(), ctx.solves(model)):
            sigma = consts.sigma_minus(P)
            cnt = bnd.count_below(solve.eigenvalues, sigma)
            ordered = solve.E < sigma and (solve.E1 is None or sigma <= solve.E1)
            if cnt != 2 or not ordered:
                bad.append(f"{_at(e, P)}: count {cnt}, ordered {ordered}")
    return CheckResult(
        "min-max counting",
        [_count("momenta without count_below(H, Sigma_-) = 2 and E < Sigma_- <= E1",
                bad)],
    )


# ----------------------------------------------------------------------
# criterion 7: gap uniformity with explicit constants
# ----------------------------------------------------------------------

def check_gap_uniformity(ctx: VerifyContext) -> CheckResult:
    if (guard := _hypotheses_guard(ctx, "gap uniformity")) is not None:
        return guard
    comparisons = []
    for e in ctx.coupling_ladder():
        model = build_model(ctx.params_at(e))
        consts = bnd.bound_constants(model)
        bound = consts.gap_floor()
        deficits = [bound - (s.E1 - s.E) for s in ctx.solves(model) if s.E1 is not None]
        comparisons += _worst(f"e={e}: bound - min(E1-E)", deficits, bnd.SANDWICH_TOL)
        if e > 0:
            chain = [consts.sigma_minus(P) - consts.upper_envelope(P) for P in ctx.momenta()]
            spread = (np.max(chain) - np.min(chain)) / max(abs(np.max(chain)), 1e-300)
            comparisons.append(
                (f"e={e}: spread of Sigma_- - upper envelope", spread, GAP_SPREAD_TOL)
            )
    return CheckResult("gap uniformity", comparisons)


# ----------------------------------------------------------------------
# criterion 8: one-photon gap function bounds
# ----------------------------------------------------------------------

def check_delta_bounds(ctx: VerifyContext) -> CheckResult:
    if (guard := _hypotheses_guard(ctx, "gap function bounds")) is not None:
        return guard
    above, below_floor, free_defects, bound_deficits = [], [], [], []
    where, bound_where = [], []
    n_certified = 0
    for e in ctx.coupling_ladder():
        params = ctx.params_at(e)
        model = build_model(params)
        consts = bnd.bound_constants(model)
        trial = default_trial_set(model)
        deltas, trials = delta_search(ctx.momenta(), model, cache=ctx.cache)
        n_certified += sum(len(t.certified) for t in trials)
        if consts.direction_free_holds():
            margins = _solved_bound_margins(ctx, model, consts, trials)
            bound_deficits += [-m for m in margins]
            bound_where += [f"e={e}"] * len(margins)
        for P, d in zip(ctx.momenta(), deltas):
            above.append(d - params.m_ph)
            where.append(_at(e, P))
            if e == 0.0:
                free_defects.append(abs(d - free_delta_gap(P, params, trial)))
            below_floor.append(consts.delta_floor(P) - d)
    tol = bnd.SANDWICH_TOL
    return CheckResult(
        "gap function bounds",
        _worst("Delta - m_ph", above, DELTA_CEILING_TOL, where)
        + _worst("|Delta - free-theory closed form|", free_defects, DELTA_FREE_TOL)
        + _worst("explicit floor - Delta", below_floor, tol, where)
        + _worst(f"direction-free bound: (gamma sqrt(q^2 + M^2) - eC') - E(q) "
                 f"at the {len(bound_deficits)} momenta solved for Delta",
                 bound_deficits, tol, bound_where),
        f"{n_certified} trials ruled out by the operator certificate",
    )


def _solved_bound_margins(ctx: VerifyContext, model, consts, trials) -> list:
    """E(q) - (gamma sqrt(q^2 + M^2) - eC') at every momentum q that Delta
    solves at the sweep, each P and each kept P - k: the bound of the
    closed-form tier of :func:`pffiber.spectral.delta_trials`.  ``trials``
    are those of the :func:`pffiber.spectral.delta_search` of the sweep, so
    no certificate runs again, and the energies are read back from the
    run's cache, which holds every one of them."""
    momenta = ctx.momenta()
    e_p = ctx.energies(momenta, model)
    shifted = [p - k for p, t in zip(momenta, trials) for k in t.kept if k.any()]
    solved = zip([*momenta, *shifted], e_p + ctx.energies(shifted, model))
    return [e - consts.direction_free_envelope(q) for q, e in solved]


# ----------------------------------------------------------------------
# criterion 9: corollary energy envelope
# ----------------------------------------------------------------------

def check_envelope(ctx: VerifyContext) -> CheckResult:
    if (guard := _hypotheses_guard(ctx, "corollary envelope")) is not None:
        return guard
    outside, where = [], []
    for e in ctx.coupling_ladder():
        model = build_model(ctx.params_at(e))
        consts = bnd.bound_constants(model)
        for P, solve in zip(ctx.momenta(), ctx.solves(model)):
            lower, upper = consts.lower_envelope(P), consts.upper_envelope(P)
            outside.append(np.maximum(lower - solve.E, solve.E - upper))
            where.append(_at(e, P))
    # width of the envelope is O(e): exact zero at e = 0, stable slope after
    p_mid = ctx.momenta()[len(ctx.momenta()) // 2]
    widths, ratios = [], []
    for e in ctx.coupling_ladder():
        consts = bnd.bound_constants(build_model(ctx.params_at(e)))
        lo, up = consts.lower_envelope(p_mid), consts.upper_envelope(p_mid)
        if e == 0.0:
            widths.append(up - lo)
        else:
            ratios.append((up - lo) / e)
    return CheckResult(
        "corollary envelope",
        _worst("distance of E(P) outside the closed-form envelope", outside,
               bnd.SANDWICH_TOL, where)
        + _worst("envelope width at e = 0", widths, ENVELOPE_WIDTH_TOL)
        + _worst("relative drift of width / e over e > 0",
                 [_drift(ratios)] if ratios else [], WIDTH_SLOPE_TOL),
    )


# ----------------------------------------------------------------------
# criterion 10: property suites
# ----------------------------------------------------------------------

def _property_basis(ctx: VerifyContext):
    params = ctx.cfg.small_params.replace(
        N_max=max(3, ctx.cfg.small_params.N_max)
    )
    modes = build_mode_set(params)
    table = form_factors(modes, params)
    basis = enumerate_basis(modes.n_modes, params.N_max)
    return params, table, basis


def _ladder_apply(ladder, coefs, vecs):
    """a(c) x and a(c)^T x for the real a(c) = sum_m c_m a_m, with no dense
    a(c): one scatter over the ``ladder`` table of the basis.

    ``coefs`` is (r, n_modes) and ``vecs`` complex, (r, k, dim): the k
    vectors of row i share the coefficients c_i.  Returns (r, k, 2, dim)
    holding a(c_i) x and a(c_i)^T x for each vector x of row i."""
    lowered, raised, modes, amps = ladder
    r, k, dim = vecs.shape
    source = np.stack([raised, lowered])
    vals = (coefs[:, modes] * amps)[:, None, None, :] * vecs[..., source]
    index = (np.arange(r * k * 2).reshape(r, k, 2, 1) * dim + source[::-1]).ravel()
    out = np.empty((r, k, 2, dim), dtype=complex)
    out.real = np.bincount(index, vals.real.ravel(), out.size).reshape(out.shape)
    out.imag = np.bincount(index, vals.imag.ravel(), out.size).reshape(out.shape)
    return out


def _unit(v):
    """Each row of v divided by its 2-norm."""
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def coupling_estimate_suite(basis, table, rng, n_rounds: int) -> float:
    """The draws and inequalities of check 10a: the worst excess, NaN if any
    excess is.

    Each round draws f, g (one real coefficient per mode), a unit phi and a
    unit psi on the truncation-safe states, in that order, and evaluates 8
    inequalities, each as the excess of its left side.  The rounds run
    in chunks sized by ``COUPLING_CHUNK_BYTES``: one draw of the chunk's
    numbers, the stream of a round-by-round loop, and two
    :func:`_ladder_apply` scatters, so no dim x dim array is formed.
    """
    dim, n_modes = basis.dim, basis.n_modes
    hf = dgamma_diag(basis, table.omega)
    om = table.omega
    one = (1 + om**-0.5) ** 2
    safe = np.flatnonzero(basis.totals() <= basis.n_max - 2)
    # the columns of f, g, Re phi, Im phi, Re psi and Im psi in one round
    cuts = np.cumsum([0, n_modes, n_modes, dim, dim, safe.size, safe.size])
    fields = [slice(a, b) for a, b in zip(cuts[:-1], cuts[1:])]
    chunk = max(1, COUPLING_CHUNK_BYTES // (128 * dim))
    worst = -math.inf
    for start in range(0, n_rounds, chunk):
        r = min(chunk, n_rounds - start)
        draw = rng.standard_normal((r, cuts[-1]))
        f, g, phi_re, phi_im, psi_re, psi_im = (draw[:, cols] for cols in fields)
        cf_half = np.sqrt(np.sum(f * f / om, axis=1))
        cf_one = np.sqrt(np.sum(one * f * f, axis=1))
        cg_one = np.sqrt(np.sum(one * g * g, axis=1))
        phi = _unit(phi_re + 1j * phi_im)
        psi = np.zeros((r, dim), dtype=complex)
        psi[:, safe] = _unit(psi_re + 1j * psi_im)
        hf_phi = np.sum(hf * np.abs(phi) ** 2, axis=1)
        hf1_phi = np.sqrt(np.sum((hf + 1) * np.abs(phi) ** 2, axis=1))
        hf1_psi = np.sum((hf + 1) * np.abs(psi) ** 2, axis=1)
        # a(f), a(f)^T on phi and a(g), a(g)^T on psi; then a(f), a(f)^T on
        # a(g) psi and on a(g)^T psi for the mixed second-order bound on the
        # truncation-safe block
        first = _ladder_apply(
            basis.ladder, np.concatenate([f, g]), np.concatenate([phi, psi])[:, None]
        )
        a_phi, at_phi = first[:r, 0, 0], first[:r, 0, 1]
        second = _ladder_apply(basis.ladder, f, first[r:, 0])
        mixed = np.abs(np.einsum("rd,ryxd->rxy", psi.conj(), second)).reshape(r, 4)
        both = a_phi + at_phi
        checks = np.column_stack([
            np.linalg.norm(a_phi, axis=1) - cf_half * np.sqrt(hf_phi),
            np.linalg.norm(at_phi, axis=1) - cf_one * hf1_phi,
            np.real(np.sum(phi.conj() * both, axis=1)) - (hf_phi + cf_half**2),
            np.linalg.norm(both, axis=1) - 2 * cf_one * hf1_phi,
            mixed - (cf_one * cg_one * hf1_psi)[:, None],
        ])
        worst = float(np.maximum(worst, np.max(checks)))
    return worst


def check_coupling_estimates(ctx: VerifyContext) -> CheckResult:
    """Lemma-style annihilation/creation bounds as matrix inequalities."""
    _, table, basis = _property_basis(ctx)
    n_rounds = ctx.cfg.verify.n_property_vectors
    return CheckResult(
        "coupling estimate suite",
        [(f"worst excess over {n_rounds} draws x 8 inequalities",
          coupling_estimate_suite(basis, table, ctx.rng, n_rounds), PROPERTY_SUITE_TOL)],
    )


def check_monotonicity(ctx: VerifyContext) -> CheckResult:
    v = ctx.cfg.verify
    worst = bnd.sqrt_monotone_test(
        dim=v.monotone_dim, trials=v.n_monotone_trials, rng_seed=v.seed
    )
    return CheckResult(
        "square-root operator monotonicity",
        [(f"-min eig(sqrt(T) - sqrt(S)) / ||sqrt(T)|| over {v.n_monotone_trials} "
          f"trials at dim {v.monotone_dim}", -worst, MONOTONE_TOL)],
    )


def check_interaction_trend(ctx: VerifyContext) -> CheckResult:
    p_mid = ctx.momenta()[len(ctx.momenta()) // 2]
    ladder = [0.0, 0.025, 0.05, 0.075, 0.1]
    vals = [
        interaction_norm(p_mid, ctx.params_at(e)) for e in ladder
    ]
    ratios = [v / e for v, e in zip(vals[1:], ladder[1:])]
    e_star = ctx.cfg.verify.e_star
    return CheckResult(
        "interaction norm trend",
        [("intercept", vals[0], INTERCEPT_TOL),
         ("relative drift of norm / e", _drift(ratios), NORM_SLOPE_TOL),
         (f"norm at e*={e_star}", interaction_norm(p_mid, ctx.params_at(e_star)),
          RELATIVE_BOUND_TOL)],
    )


# ----------------------------------------------------------------------
# criterion 11: symmetry and negative controls
# ----------------------------------------------------------------------

def check_parity(ctx: VerifyContext) -> CheckResult:
    defects = []
    for e in ctx.coupling_ladder():
        model = build_model(ctx.params_at(e))
        pairs = [Q for P in ctx.momenta()[1:] for Q in (P, -P)]
        es = ctx.energies(pairs, model)
        defects += [abs(e_plus - e_minus) for e_plus, e_minus in zip(es[::2], es[1::2])]
    return CheckResult(
        "parity symmetry E(P) = E(-P)",
        _worst("max |E(P) - E(-P)|", defects, PARITY_TOL),
    )


def check_negative_controls(ctx: VerifyContext) -> CheckResult:
    model = build_model(ctx.cfg.params)
    P = ctx.momenta()[len(ctx.momenta()) // 2]
    h = build_H(P, model)
    broken = h + np.kron(np.diag([1.0, -1.0]), np.eye(model.dim))
    res_sigma3 = kra.check_theta_commutes(broken)
    h_odd, parity = kra.position_toy(odd_potential=True)
    res_odd = kra.check_theta_commutes_position(h_odd, parity)
    try:
        kra.check_theta_commutes_related("position_toy", odd_potential=True)
        accepted = 1
    except ValueError:
        accepted = 0
    return CheckResult(
        "negative controls flagged",
        [("floor - sigma_3 perturbation residual", CONTROL_FLOOR - res_sigma3, 0.0),
         ("floor - odd-potential residual", CONTROL_FLOOR - res_odd, 0.0),
         ("odd potential accepted", accepted, 0)],
    )


# ----------------------------------------------------------------------
# module-invariant extras (cheap hard checks + soft diagnostics)
# ----------------------------------------------------------------------

def check_reality_structure(ctx: VerifyContext) -> CheckResult:
    residuals = [
        r for e in ctx.coupling_ladder()
        for r in kra.check_reality_relations(ctx.params_at(e)).values()
    ]
    nr = kra.check_theta_commutes_related(
        "nonrelativistic", ctx.cfg.params, P=ctx.momenta()[-1]
    )
    toy = kra.check_theta_commutes_related("position_toy")
    return CheckResult(
        "reality structure",
        _worst("field conjugation residual", residuals, REALITY_TOL)
        + [("nonrelativistic theta residual", nr, REALITY_TOL),
           ("even-potential toy theta residual", toy, REALITY_TOL)],
    )


def check_spin_difference_bounds(ctx: VerifyContext) -> CheckResult:
    """Spinless lower bound and spin-difference bound as matrix facts."""
    deficits = []
    for e in ctx.coupling_ladder():
        model = build_model(ctx.params_at(e))
        p, n = model.params, model.norms
        for P in (ctx.momenta()[0], ctx.momenta()[-1]):
            absp = float(np.linalg.norm(P))
            h = build_H(absp * bnd.U_DIRECTION, model)
            hsl = build_H_SL(absp * bnd.U_DIRECTION, model)
            hsl2 = np.kron(np.eye(2), hsl)
            envelope = (3 * math.pi / p.M) * n.n_curl * (
                hf_spinor(model) + np.eye(2 * model.dim)
            )
            with threads(h):
                scale = float(np.linalg.norm(h, ord=2))
                for sign in (1.0, -1.0):
                    margin = float(
                        np.linalg.eigvalsh(envelope - sign * (hsl2 - h))[0]
                    )
                    deficits.append(-margin / scale)
            free = p.gamma * math.sqrt(absp**2 + p.M**2)
            ec = p.gamma * n.n_half_comp[0]
            lower = free + (1 - p.gamma - ec) * model.hf - ec
            margin = float(np.linalg.eigvalsh(hsl - np.diag(lower))[0])
            deficits.append(-margin / scale)
            deficits.append(-bnd.taylor_remainder_min_eig(P, model) / scale)
    return CheckResult(
        "spinless chain bounds",
        _worst("-min spin-difference, spinless lower and Taylor-rest margin (scaled)",
               deficits, bnd.SANDWICH_TOL),
    )


def check_quadrature_consistency(ctx: VerifyContext) -> CheckResult:
    params = ctx.cfg.params
    modes = build_mode_set(params)
    vol = ball_volume(params.Lambda, params.k_min)
    return CheckResult(
        "mode quadrature weights",
        [("sum of k-point weights vs shell volume, rel dev",
          abs(modes.kpoint_weight_sum() - vol) / vol, WEIGHT_SUM_TOL)],
    )


def check_delta_monotone(ctx: VerifyContext) -> CheckResult:
    model = build_model(ctx.cfg.params)
    P = ctx.momenta()[-1]
    full = default_trial_set(model)
    sub = full[: max(2, len(full) // 3)]
    (d_full,) = ctx.deltas([P], model, full)
    (d_sub,) = ctx.deltas([P], model, sub)
    return CheckResult(
        "gap trial-set monotonicity",
        [(f"Delta(full {len(full)}) - Delta(subset {len(sub)})", d_full - d_sub,
          TRIAL_MONOTONE_TOL)],
    )


def check_lipschitz(ctx: VerifyContext) -> CheckResult:
    model = build_model(ctx.cfg.params)
    ratios = []
    for absp in (0.0, 1.0, 2.0):
        P = absp * bnd.U_DIRECTION
        for kmag in (1e-3, 1e-2, 0.1, 1.0):
            k = kmag * np.array([0.6, 0.0, 0.8])
            ratios.append(lipschitz_ratio(P, k, model))
    worst = float(np.max(ratios))  # NaN if any ratio is
    return CheckResult(
        "momentum Lipschitz property",
        [("max || (|D(P-k)|-|D(P)|)(H(P)+1)^-1 || / |k| over the sample", worst,
          LIPSCHITZ_TOL),
         ("its max over its least positive value", worst / min(r for r in ratios if r > 0),
          LIPSCHITZ_SPREAD_TOL)],
    )


def report_radial_deviation(ctx: VerifyContext) -> CheckResult:
    model = build_model(ctx.cfg.params)
    absp = 1.0
    dirs = [
        np.array([1.0, 0.0, 0.0]),
        np.array([1.0, 1.0, 0.0]) / math.sqrt(2),
        np.array([1.0, 1.0, 1.0]) / math.sqrt(3),
    ]
    es = ctx.energies([absp * u for u in dirs], model)
    dev = max(es) - min(es)
    return CheckResult(
        "radial deviation (rotation covariance probe)",
        [],
        f"spread of E over same-|P| directions: {dev:.3e} "
        "(discretization artifact, reported not asserted)",
        hard=False,
    )


def report_convergence_trend(ctx: VerifyContext) -> CheckResult:
    P = ctx.momenta()[len(ctx.momenta()) // 2]
    params = ctx.cfg.small_params.replace(e=0.1)
    rows = convergence_study(P, params, ctx.cfg.convergence_ladder)
    diffs = [r["diff_prev"] for r in rows if r["diff_prev"] is not None]
    trend = ", ".join(f"{d:+.3e}" for d in diffs)
    return CheckResult(
        "truncation convergence trend",
        [],
        f"E(P) successive differences along the refinement ladder: [{trend}]",
        hard=False,
    )


def report_cache_identity(ctx: VerifyContext) -> CheckResult:
    model = build_model(ctx.cfg.params)
    P = ctx.momenta()[min(1, len(ctx.momenta()) - 1)]
    cache = EnergyCache()
    first = ground_data(P, model, cache=cache)
    second = ground_data(P, model, cache=cache)
    fresh = ground_data(P, model)
    return CheckResult(
        "cache determinism",
        _worst("|cached E - recomputed E|, bit for bit",
               [abs(first - fresh), abs(second - fresh)], 0.0)
        + [("|cache hits - 1|", abs(cache.hits - 1), 0)],
    )


ALL_CHECKS = [
    ("1", check_free_oracle),
    ("2a", check_clifford_square),
    ("2b", check_pauli_identity),
    ("3", check_sqrt_crossval),
    ("4", check_kramers),
    ("5", check_sandwich),
    ("6", check_counting),
    ("7", check_gap_uniformity),
    ("8", check_delta_bounds),
    ("9", check_envelope),
    ("10a", check_coupling_estimates),
    ("10b", check_monotonicity),
    ("10c", check_interaction_trend),
    ("11a", check_parity),
    ("11b", check_negative_controls),
    ("inv1", check_reality_structure),
    ("inv2", check_spin_difference_bounds),
    ("inv3", check_quadrature_consistency),
    ("inv4", check_delta_monotone),
    ("inv5", check_lipschitz),
    ("soft1", report_radial_deviation),
    ("soft2", report_convergence_trend),
    ("inv6", report_cache_identity),
]


class VerifyStopped(EigensolverError):
    """An eigensolver failure that stopped :func:`run_verify`: ``results``
    holds the checks run before it and, last, a failed hard entry for the
    check it stopped, which names the momenta of the failure."""

    def __init__(self, exc: Exception, results: list):
        super().__init__(str(exc))
        self.results = results


def run_verify(cfg: RunConfig, cache: EnergyCache | None = None, printer=None):
    """Run the full suite; returns (exit_code, results).

    Exit code 0 iff every hard check passes; soft reports never gate.  An
    eigensolver failure stops the suite with :class:`VerifyStopped`.
    """
    ctx = VerifyContext(cfg, cache=cache)
    results = []
    for tag, fn in ALL_CHECKS:
        try:
            res = fn(ctx)
        except (EigensolverError, np.linalg.LinAlgError) as exc:
            results.append(CheckResult(f"{tag} {fn.__name__}",
                                       [("eigensolver error", math.nan, 0.0)], str(exc)))
            raise VerifyStopped(exc, results) from exc
        res.name = f"{tag} {res.name}"
        results.append(res)
        if printer is not None:
            printer(res.line())
    exit_code = 0 if all(r.passed for r in results if r.hard) else 1
    return exit_code, results
