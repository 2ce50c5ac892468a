"""Verification suite: every spectral claim checked at desk scale.

Each check is a named function returning a :class:`CheckResult`; the CLI
``verify`` subcommand and the acceptance test module drive the same
implementations.  Hard checks gate the exit code; soft checks (trend and
deviation reports) are informational.

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
from dataclasses import dataclass

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
# loosen them.  The sandwich and envelope checks (5, 7, 8, 9, inv2) read
# ``bounds.SANDWICH_TOL``, and check 4 clusters at ``spectral.CLUSTER_TOL``.
FREE_ORACLE_TOL = 1e-10  # check 1
CLIFFORD_TOL = 1e-10  # check 2a
PAULI_IDENTITY_TOL = 1e-12  # check 2b, relative
SQRT_CROSSVAL_TOL = 1e-8  # check 3
THETA_COMM_TOL = 1e-12  # check 4
PROPERTY_SUITE_TOL = 1e-10  # check 10a
PARITY_TOL = 1e-10  # check 11a
DELTA_FREE_TOL = 1e-10  # check 8, the e = 0 Delta against its closed form

# check 10a runs as many rounds at a time as fill about this many bytes with
# their eight complex vectors each (phi, psi and their six images under a(f),
# a(g) and the transposes), 128 bytes per basis state and round
COUPLING_CHUNK_BYTES = 64 * 1024


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    hard: bool = True

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        if not self.hard:
            status = "info" if self.passed else "WARN"
        return f"[{status}] {self.name}: {self.detail}"


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
        True,
        "hypotheses not met (need gamma < 1 and m_ph > 0); "
        "comparison-operator check skipped",
    )


def _worst(worst: float, defect) -> float:
    """The larger of two defects, NaN if either is: Python's max(worst,
    nan) keeps worst, and a NaN defect would then pass its check."""
    return float(np.maximum(worst, defect))


def _least(least: float, margin) -> float:
    """The smaller of two margins, NaN if either is, as :func:`_worst`."""
    return float(np.minimum(least, margin))


# ----------------------------------------------------------------------
# criterion 1: free-theory enumeration oracle
# ----------------------------------------------------------------------

def check_free_oracle(ctx: VerifyContext) -> CheckResult:
    tol = FREE_ORACLE_TOL
    model = build_model(ctx.params_at(0.0))
    worst = 0.0
    for P, solve in zip(ctx.momenta(), ctx.solves(model)):
        ev = solve.eigenvalues
        fock_levels = h0_diag(P, model)
        closed = np.sort(np.concatenate([fock_levels, fock_levels]))
        worst = _worst(worst, np.max(np.abs(ev - closed)))
    return CheckResult(
        "free-theory oracle",
        worst <= tol,
        f"max |eig - closed form| = {worst:.3e} (tol {tol:.1e}), "
        "two-fold spin degeneracy enforced by the duplicated enumeration",
    )


# ----------------------------------------------------------------------
# criterion 2: Clifford / Pauli algebra identities
# ----------------------------------------------------------------------

def check_clifford_square(ctx: VerifyContext) -> CheckResult:
    tol = CLIFFORD_TOL
    worst = 0.0
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
        worst = _worst(worst, np.linalg.norm(d2 - block) / np.linalg.norm(d2))
    return CheckResult(
        "Clifford square identity",
        worst <= tol,
        f"max rel Frobenius defect of D(P)^2 = (T+M^2) oplus (T+M^2): "
        f"{worst:.3e} (tol {tol:.1e})",
    )


def check_pauli_identity(ctx: VerifyContext) -> CheckResult:
    tol = PAULI_IDENTITY_TOL
    worst = 0.0
    sub_worst = 0.0
    for _ in range(ctx.cfg.verify.n_random_draws):
        e = ctx.rng.uniform(0.0, ctx.cfg.verify.e_max_random)
        P = _random_P(ctx.rng)
        model = build_model(ctx.params_at(e))
        td = build_T(P, model)
        te = build_T_expanded(P, model)
        worst = _worst(worst, np.linalg.norm(td - te) / np.linalg.norm(td))
        sub, _ = spin_curl_mismatch(P, model)
        sub_worst = _worst(sub_worst, sub)
    ok = worst <= tol and sub_worst <= 1e-12
    return CheckResult(
        "Pauli expansion identity",
        ok,
        f"direct vs expanded T(P): {worst:.3e} rel (tol {tol:.1e}); "
        f"i(v^v) = field curl below the truncation edge: {sub_worst:.3e}",
    )


# ----------------------------------------------------------------------
# criterion 3: square-root cross-validation
# ----------------------------------------------------------------------

def check_sqrt_crossval(ctx: VerifyContext) -> CheckResult:
    tol = SQRT_CROSSVAL_TOL
    worst, stalled = 0.0, ""
    for _ in range(ctx.cfg.verify.n_sqrt_draws):
        e = ctx.rng.uniform(0.0, ctx.cfg.verify.e_max_random)
        P = _random_P(ctx.rng)
        model = build_model(ctx.params_at(e))
        m2 = model.params.M**2
        h = build_T(P, model) + m2 * np.eye(2 * model.dim)
        try:
            quad = op_sqrt_quad(h, tol=tol, scale=m2)
        except QuadratureNotConverged as exc:  # a failure, not a crash
            worst, stalled = math.inf, f"; {exc}"
            continue
        # the quadrature checks the reference root and the root H is built from
        roots = (op_sqrt_eig(h), kinetic_root(sigma_dot_v(P, model), model.params.M))
        for r in roots:
            worst = _worst(worst, np.max(np.abs(quad - r)))
    return CheckResult(
        "square-root cross-validation",
        worst <= tol,
        f"max |quadrature - spectral| on T(P)+M^2, spectral from T(P)+M^2 "
        f"and from sigma.v: {worst:.3e} (tol {tol:.1e}){stalled}",
    )


# ----------------------------------------------------------------------
# criterion 4: Kramers degeneracy
# ----------------------------------------------------------------------

def check_kramers(ctx: VerifyContext) -> CheckResult:
    tol = THETA_COMM_TOL
    certify = ctx.cfg.params.gap_hypotheses_met()
    model0 = build_model(ctx.cfg.params)
    sign_defect = kra.theta_squared_sign(model0.dim)
    worst_comm = 0.0
    odd_found = None
    mult_bad = None
    for e in [v for v in ctx.coupling_ladder() if v > 0.0]:
        model = build_model(ctx.params_at(e))
        for P, solve in zip(ctx.momenta(), ctx.solves(model)):
            worst_comm = _worst(worst_comm, solve.residuals["theta_commutation"])
            clusters = cluster_degeneracy(solve.eigenvalues, CLUSTER_TOL)
            if any(c[1] % 2 for c in clusters):
                odd_found = (e, tuple(P))
            if not certify:
                continue
            cert = kra.kramers_certificate(
                P, model, e_star=ctx.cfg.verify.e_star, cache=ctx.cache
            )
            if cert.conclusion != "exactly two-fold":
                mult_bad = (e, tuple(P), cert.conclusion)
    ok = (
        sign_defect == 0.0
        and worst_comm <= tol
        and odd_found is None
        and mult_bad is None
    )
    detail = (
        f"theta^2 = -1 defect {sign_defect:.1e}; max commutation residual "
        f"{worst_comm:.3e} (tol {tol:.1e}); "
    )
    if ok:
        detail += "all multiplicities even"
        detail += (
            "; ground level exactly two-fold"
            if certify
            else "; certificate skipped (hypotheses not met)"
        )
    else:
        detail += f"odd cluster {odd_found}, certificate failure {mult_bad}"
    return CheckResult("Kramers degeneracy", ok, detail)


# ----------------------------------------------------------------------
# criteria 5 + 6: operator sandwich and min-max counting
# ----------------------------------------------------------------------

def check_sandwich(ctx: VerifyContext) -> CheckResult:
    if (guard := _hypotheses_guard(ctx, "operator sandwich")) is not None:
        return guard
    tol = bnd.SANDWICH_TOL
    worst = math.inf
    for e in ctx.coupling_ladder():
        model = build_model(ctx.params_at(e))
        for solve in ctx.solves(model):
            lower, upper, scale = solve.sandwich
            worst = _least(_least(worst, lower / scale), upper / scale)
    return CheckResult(
        "operator sandwich",
        worst >= -tol,
        f"min eig margin (both sides, scaled): {worst:.3e} (tol -{tol:.1e})",
    )


def check_counting(ctx: VerifyContext) -> CheckResult:
    if (guard := _hypotheses_guard(ctx, "min-max counting")) is not None:
        return guard
    bad = []
    worst_margin = math.inf
    for e in ctx.coupling_ladder():
        model = build_model(ctx.params_at(e))
        consts = bnd.bound_constants(model)
        for P, solve in zip(ctx.momenta(), ctx.solves(model)):
            sigma = consts.sigma_minus(P)
            cnt = bnd.count_below(solve.eigenvalues, sigma)
            e0, e1 = solve.E, solve.E1
            ordered = e0 < sigma and (e1 is None or sigma <= e1)
            worst_margin = _least(
                _least(worst_margin, sigma - e0), (e1 or math.inf) - sigma
            )
            if cnt != 2 or not ordered:
                bad.append((e, float(np.linalg.norm(P)), cnt, ordered))
    return CheckResult(
        "min-max counting",
        not bad,
        f"count_below(H, Sigma_-) = 2 and E < Sigma_- <= E1 on the full sweep; "
        f"worst ordering margin {worst_margin:.4f}"
        if not bad
        else f"violations {bad[:3]}",
    )


# ----------------------------------------------------------------------
# criterion 7: gap uniformity with explicit constants
# ----------------------------------------------------------------------

def check_gap_uniformity(ctx: VerifyContext) -> CheckResult:
    if (guard := _hypotheses_guard(ctx, "gap uniformity")) is not None:
        return guard
    tol = bnd.SANDWICH_TOL
    fails = []
    detail = []
    for e in ctx.coupling_ladder():
        params = ctx.params_at(e)
        model = build_model(params)
        consts = bnd.bound_constants(model)
        bound = (1.0 - consts.e_c1 - params.gamma) * params.m_ph - consts.e_c2
        gaps = []
        chain = []
        for P, solve in zip(ctx.momenta(), ctx.solves(model)):
            gaps.append(math.inf if solve.E1 is None else solve.E1 - solve.E)
            chain.append(consts.sigma_minus(P) - consts.upper_envelope(P))
        min_gap = float(np.min(gaps))  # NaN if any gap is
        if not min_gap >= bound - tol:
            fails.append((e, min_gap, bound))
        spread = (np.max(chain) - np.min(chain)) / max(abs(np.max(chain)), 1e-300)
        if e > 0 and not spread <= 0.10:
            fails.append((e, "uniformity spread", spread))
        detail.append(f"e={e}: min(E1-E)={min_gap:.4f} >= {bound:.4f}")
    return CheckResult(
        "gap uniformity",
        not fails,
        "; ".join(detail) if not fails else f"violations {fails}",
    )


# ----------------------------------------------------------------------
# criterion 8: one-photon gap function bounds
# ----------------------------------------------------------------------

def check_delta_bounds(ctx: VerifyContext) -> CheckResult:
    if (guard := _hypotheses_guard(ctx, "gap function bounds")) is not None:
        return guard
    tol_free = DELTA_FREE_TOL
    tol = bnd.SANDWICH_TOL
    fails = []
    worst_free = 0.0
    worst_bound, n_bound, n_certified = math.inf, 0, 0
    for e in ctx.coupling_ladder():
        params = ctx.params_at(e)
        model = build_model(params)
        consts = bnd.bound_constants(model)
        trial = default_trial_set(model)
        deltas, trials = delta_search(ctx.momenta(), model, cache=ctx.cache)
        n_certified += sum(len(t.certified) for t in trials)
        if consts.direction_free_holds():
            margins = _solved_bound_margins(ctx, model, consts, trials)
            low = float(np.min(margins, initial=math.inf))
            worst_bound, n_bound = _least(worst_bound, low), n_bound + len(margins)
            if not low >= -tol:
                fails.append((e, "direction-free bound", low))
        for P, d in zip(ctx.momenta(), deltas):
            if not d <= params.m_ph + 1e-12:
                fails.append((e, "ceiling", d))
            if e == 0.0:
                worst_free = _worst(
                    worst_free, abs(d - free_delta_gap(P, params, trial))
                )
            free = params.gamma * math.sqrt(float(P @ P) + params.M**2)
            measured_margin = consts.e_c2 + consts.upper_envelope(P) - free
            if not d >= (1.0 - params.gamma) * params.m_ph - measured_margin - tol:
                fails.append((e, "floor", d))
    if not worst_free <= tol_free:
        fails.append((0.0, "free oracle", worst_free))
    return CheckResult(
        "gap function bounds",
        not fails,
        f"Delta <= m_ph, free-theory match {worst_free:.2e} "
        f"(tol {tol_free:.1e}), explicit floor respected; "
        f"E(q) - (gamma sqrt(q^2 + M^2) - eC') >= {worst_bound:.3e} "
        f"at the {n_bound} momenta solved for Delta (tol -{tol:.1e}); "
        f"{n_certified} trials ruled out by the operator certificate"
        if not fails
        else f"violations {fails[:3]}",
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
    tol = bnd.SANDWICH_TOL
    fails = []
    for e in ctx.coupling_ladder():
        model = build_model(ctx.params_at(e))
        consts = bnd.bound_constants(model)
        for P, solve in zip(ctx.momenta(), ctx.solves(model)):
            lower, upper = bnd.corollary_energy_bounds(P, model, consts)
            e0 = solve.E
            if not (lower - tol <= e0 <= upper + tol):
                fails.append((e, float(np.linalg.norm(P)), e0, lower, upper))
    # width of the envelope is O(e): exact zero at e = 0, stable slope after
    p_mid = ctx.momenta()[len(ctx.momenta()) // 2]
    ratios = []
    for e in ctx.coupling_ladder():
        model = build_model(ctx.params_at(e))
        lo, up = bnd.corollary_energy_bounds(p_mid, model)
        if e == 0.0:
            if up - lo > 1e-12:
                fails.append(("width at e=0", up - lo))
        else:
            ratios.append((up - lo) / e)
    if ratios and (max(ratios) - min(ratios)) > 0.05 * max(ratios):
        fails.append(("width slope drift", ratios))
    return CheckResult(
        "corollary envelope",
        not fails,
        "E(P) inside the closed-form envelope; width O(e)"
        if not fails
        else f"violations {fails[:3]}",
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


def coupling_estimate_suite(basis, table, rng, n_rounds: int, tol: float):
    """The draws and inequalities of check 10a: (violations, worst excess).

    Each round draws f, g (one real coefficient per mode), a unit phi and a
    unit psi on the truncation-safe states, in that order, and evaluates 8
    inequalities; a violation is an excess above ``tol``.  The rounds run
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
    violations = 0
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
        worst = _worst(worst, np.max(checks))
        violations += int(np.count_nonzero(~(checks <= tol)))
    return violations, worst


def check_coupling_estimates(ctx: VerifyContext) -> CheckResult:
    """Lemma-style annihilation/creation bounds as matrix inequalities."""
    tol = PROPERTY_SUITE_TOL
    _, table, basis = _property_basis(ctx)
    n_rounds = ctx.cfg.verify.n_property_vectors
    violations, worst = coupling_estimate_suite(basis, table, ctx.rng, n_rounds, tol)
    return CheckResult(
        "coupling estimate suite",
        violations == 0,
        f"{n_rounds} draws x 8 inequalities, {violations} violations "
        f"beyond {tol:.1e} (worst excess {worst:.3e})",
    )


def check_monotonicity(ctx: VerifyContext) -> CheckResult:
    ok, worst = bnd.sqrt_monotone_test(
        dim=ctx.cfg.verify.monotone_dim,
        trials=ctx.cfg.verify.n_monotone_trials,
        rng_seed=ctx.cfg.verify.seed,
    )
    return CheckResult(
        "square-root operator monotonicity",
        ok,
        f"{ctx.cfg.verify.n_monotone_trials} trials at dim "
        f"{ctx.cfg.verify.monotone_dim}; worst scaled margin {worst:.3e}",
    )


def check_interaction_trend(ctx: VerifyContext) -> CheckResult:
    p_mid = ctx.momenta()[len(ctx.momenta()) // 2]
    ladder = [0.0, 0.025, 0.05, 0.075, 0.1]
    vals = [
        interaction_norm(p_mid, ctx.params_at(e)) for e in ladder
    ]
    intercept = vals[0]
    ratios = [v / e for v, e in zip(vals[1:], ladder[1:])]
    top = float(np.max(ratios))  # NaN if any ratio is
    drift = (top - float(np.min(ratios))) / top if top else 0.0
    below_star = interaction_norm(
        p_mid, ctx.params_at(ctx.cfg.verify.e_star)
    )
    ok = intercept <= 1e-10 and drift <= 0.05 and below_star < 1.0
    return CheckResult(
        "interaction norm trend",
        ok,
        f"intercept {intercept:.2e} (tol 1e-10), slope drift {drift:.2%}, "
        f"norm at e*={ctx.cfg.verify.e_star}: {below_star:.3e} < 1",
    )


# ----------------------------------------------------------------------
# criterion 11: symmetry and negative controls
# ----------------------------------------------------------------------

def check_parity(ctx: VerifyContext) -> CheckResult:
    tol = PARITY_TOL
    worst = 0.0
    for e in ctx.coupling_ladder():
        model = build_model(ctx.params_at(e))
        pairs = [Q for P in ctx.momenta()[1:] for Q in (P, -P)]
        es = ctx.energies(pairs, model)
        for e_plus, e_minus in zip(es[::2], es[1::2]):
            worst = _worst(worst, abs(e_plus - e_minus))
    return CheckResult(
        "parity symmetry E(P) = E(-P)",
        worst <= tol,
        f"max |E(P) - E(-P)| = {worst:.3e} (tol {tol:.1e})",
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
        rejected = False
    except ValueError:
        rejected = True
    ok = res_sigma3 > 1e-2 and res_odd > 1e-2 and rejected
    return CheckResult(
        "negative controls flagged",
        ok,
        f"sigma_3 perturbation residual {res_sigma3:.3f}, odd-potential "
        f"residual {res_odd:.3f}, odd potential rejected: {rejected}",
    )


# ----------------------------------------------------------------------
# module-invariant extras (cheap hard checks + soft diagnostics)
# ----------------------------------------------------------------------

def check_reality_structure(ctx: VerifyContext) -> CheckResult:
    worst = 0.0
    for e in ctx.coupling_ladder():
        res = kra.check_reality_relations(ctx.params_at(e))
        worst = _worst(worst, np.max(list(res.values())))
    nr = kra.check_theta_commutes_related(
        "nonrelativistic", ctx.cfg.params, P=ctx.momenta()[-1]
    )
    toy = kra.check_theta_commutes_related("position_toy")
    ok = worst <= 1e-12 and nr <= 1e-12 and toy <= 1e-12
    return CheckResult(
        "reality structure",
        ok,
        f"field conjugation residuals <= {worst:.1e}; related models "
        f"(nonrelativistic {nr:.1e}, even-potential toy {toy:.1e})",
    )


def check_spin_difference_bounds(ctx: VerifyContext) -> CheckResult:
    """Spinless lower bound and spin-difference bound as matrix facts."""
    tol = bnd.SANDWICH_TOL
    worst = math.inf
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
                    worst = _least(worst, margin / scale)
            free = p.gamma * math.sqrt(absp**2 + p.M**2)
            ec = p.gamma * n.n_half_comp[0]
            lower = free + (1 - p.gamma - ec) * model.hf - ec
            margin = float(np.linalg.eigvalsh(hsl - np.diag(lower))[0])
            worst = _least(worst, margin / scale)
            tay = bnd.taylor_remainder_min_eig(P, model) / scale
            worst = _least(worst, tay)
    return CheckResult(
        "spinless chain bounds",
        worst >= -tol,
        f"spin-difference, spinless lower and Taylor-rest margins "
        f">= {worst:.3e} (tol -{tol:.1e})",
    )


def check_quadrature_consistency(ctx: VerifyContext) -> CheckResult:
    params = ctx.cfg.params
    modes = build_mode_set(params)
    vol = ball_volume(params.Lambda, params.k_min)
    rel = abs(modes.kpoint_weight_sum() - vol) / vol
    ok = rel <= 1e-12
    return CheckResult(
        "mode quadrature weights",
        ok,
        f"sum of k-point weights vs shell volume: rel dev {rel:.3e}",
    )


def check_delta_monotone(ctx: VerifyContext) -> CheckResult:
    model = build_model(ctx.cfg.params)
    P = ctx.momenta()[-1]
    full = default_trial_set(model)
    sub = full[: max(2, len(full) // 3)]
    (d_full,) = ctx.deltas([P], model, full)
    (d_sub,) = ctx.deltas([P], model, sub)
    ok = d_full <= d_sub + 1e-12
    return CheckResult(
        "gap trial-set monotonicity",
        ok,
        f"Delta(full {len(full)}) = {d_full:.6f} <= Delta(subset {len(sub)}) "
        f"= {d_sub:.6f}",
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
    ok = worst <= 50.0 and worst <= 20.0 * min(r for r in ratios if r > 0)
    return CheckResult(
        "momentum Lipschitz property",
        ok,
        f"|| (|D(P-k)|-|D(P)|)(H(P)+1)^-1 || / |k| in "
        f"[{min(ratios):.3f}, {worst:.3f}] over the sample",
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
        True,
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
        True,
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
    ok = first == second == fresh and cache.hits == 1
    return CheckResult(
        "cache determinism",
        ok,
        "cache hit reproduces recomputation bit for bit",
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
            results.append(CheckResult(f"{tag} {fn.__name__}", False,
                                       f"eigensolver error: {exc}"))
            raise VerifyStopped(exc, results) from exc
        res.name = f"{tag} {res.name}"
        results.append(res)
        if printer is not None:
            printer(res.line())
    exit_code = 0 if all(r.passed for r in results if r.hard) else 1
    return exit_code, results
