"""Single verify checks run on their own, outside the acceptance suite."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from pffiber import verify as vf
from pffiber.config import default_config
from pffiber.fock import dgamma_diag


def test_coupling_estimates_detail_at_the_default_config():
    result = vf.check_coupling_estimates(vf.VerifyContext(default_config()))
    assert result.passed
    ((label, value, tol, at),) = (c.values() for c in result.comparisons)
    assert label == "worst excess over 1000 draws x 8 inequalities"
    assert f"{value:.3e}" == "-1.813e-01" and tol == vf.PROPERTY_SUITE_TOL == 1e-10
    assert at is None
    assert result.detail == f"{label}: -1.813e-01 <= 1.0e-10"


def test_coupling_estimates_hold_two_dense_operators():
    """a(f) and a(g) are applied by a scatter over the ladder table, with no
    dense operator: at 24 modes and N_max 3 the check's peak stays below one
    dense dim x dim matrix (it once held two, and the bound four)."""
    cfg = default_config()
    cfg = dataclasses.replace(
        cfg,
        small_params=cfg.small_params.replace(n_shells=2, n_dirs=6),
        verify=dataclasses.replace(cfg.verify, n_property_vectors=2),
    )
    ctx = vf.VerifyContext(cfg)
    dim = vf._property_basis(ctx)[2].dim
    assert dim == 2925  # 24 modes at N_max 3
    tracemalloc.start()
    try:
        result = vf.check_coupling_estimates(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak < dim * dim * 8


def test_monotonicity_detail_at_the_default_config():
    """The worst scaled margin enters as its deficit, -margin."""
    result = vf.check_monotonicity(vf.VerifyContext(default_config()))
    assert result.passed
    ((label, value, tol, at),) = (c.values() for c in result.comparisons)
    assert "over 1000 trials at dim 12" in label
    assert f"{-value:.3e}" == "2.226e-03" and tol == vf.MONOTONE_TOL == 1e-10
    assert at is None
    assert result.detail == f"{label}: -2.226e-03 <= 1.0e-10"


@pytest.mark.parametrize(
    "check", [vf.check_coupling_estimates, vf.check_monotonicity], ids=["10a", "10b"]
)
def test_property_suites_stay_below_one_megabyte(check):
    """The chunked draws bound the peak; the first run pays the imports."""
    check(vf.VerifyContext(default_config()))
    tracemalloc.start()
    try:
        assert check(vf.VerifyContext(default_config())).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _coupling_suite_per_round(basis, table, rng, n_rounds, tol):
    """The round-by-round loop with dense a(f) and a(g) that
    :func:`pffiber.verify.coupling_estimate_suite` batches."""
    dim, n_modes = basis.dim, basis.n_modes
    rows, cols, modes, amps = basis.ladder
    hf = dgamma_diag(basis, table.omega)
    om = table.omega
    safe = basis.totals() <= basis.n_max - 2
    violations = 0
    worst = -math.inf

    def _vec():
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return v / np.linalg.norm(v)

    def _apply(a, v):
        return a @ v.real + 1j * (a @ v.imag)

    af = np.zeros((dim, dim))
    ag = np.zeros((dim, dim))
    for _ in range(n_rounds):
        f = rng.standard_normal(n_modes)
        g = rng.standard_normal(n_modes)
        af[rows, cols] = f[modes] * amps
        ag[rows, cols] = g[modes] * amps
        cf_half = math.sqrt(float(np.sum(f * f / om)))
        cf_one = math.sqrt(float(np.sum((1 + om**-0.5) ** 2 * f * f)))
        cg_one = math.sqrt(float(np.sum((1 + om**-0.5) ** 2 * g * g)))
        phi = _vec()
        hf_half_norm = math.sqrt(float(np.sum(hf * np.abs(phi) ** 2)))
        hf1_norm = math.sqrt(float(np.sum((hf + 1) * np.abs(phi) ** 2)))
        a_phi, at_phi = _apply(af, phi), _apply(af.T, phi)
        checks = [
            np.linalg.norm(a_phi) - cf_half * hf_half_norm,
            np.linalg.norm(at_phi) - cf_one * hf1_norm,
            np.real(np.vdot(phi, a_phi + at_phi))
            - (float(np.sum(hf * np.abs(phi) ** 2)) + cf_half**2),
            np.linalg.norm(a_phi + at_phi) - 2 * cf_one * hf1_norm,
        ]
        psi = np.zeros(dim, dtype=complex)
        psi[safe] = rng.standard_normal(safe.sum()) + 1j * rng.standard_normal(
            safe.sum()
        )
        psi /= np.linalg.norm(psi)
        hf1_psi = float(np.sum((hf + 1) * np.abs(psi) ** 2))
        for x in (af, af.T):
            for y in (ag, ag.T):
                checks.append(
                    abs(complex(np.vdot(psi, _apply(x, _apply(y, psi)))))
                    - cf_one * cg_one * hf1_psi
                )
        for c in checks:
            worst = max(worst, float(c))
            if c > tol:
                violations += 1
    return violations, worst


@pytest.mark.parametrize("tol", [1e-10, -0.5])
def test_coupling_suite_equals_the_per_round_loop(tol):
    """The same stream consumed, for round counts on either side of a
    chunk, and the worst excess passes its tolerance iff the loop counts no
    violation beyond it.  The worst excess agrees to a few ulps, not bit
    for bit: the loop's norms and products go through BLAS dot and gemv
    kernels, whose summation order a stacked scatter does not repeat."""
    _, table, basis = vf._property_basis(vf.VerifyContext(default_config()))
    chunk = vf.COUPLING_CHUNK_BYTES // (128 * basis.dim)
    assert chunk > 2
    for n_rounds in (1, chunk - 1, chunk, chunk + 1, 1000):
        rng, ref_rng = np.random.default_rng(n_rounds), np.random.default_rng(n_rounds)
        got = vf.coupling_estimate_suite(basis, table, rng, n_rounds)
        violations, want = _coupling_suite_per_round(basis, table, ref_rng, n_rounds, tol)
        assert abs(got - want) <= 64 * np.finfo(float).eps * max(1.0, abs(want))
        assert vf.CheckResult("10a", [("worst excess", got, tol)]).passed == (violations == 0)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert violations > 0 if tol < 0 else violations == 0


def _fast_context():
    """The desk config with fewer quadrature and property draws."""
    cfg = default_config()
    return vf.VerifyContext(dataclasses.replace(
        cfg, verify=dataclasses.replace(cfg.verify, n_sqrt_draws=2, n_property_vectors=25)
    ))


def _spoil(owner, name, transform):
    """A spoiler: called with a monkeypatch and a bad value, it patches
    owner.<name> to return transform(result, call, bad) of each result,
    call counting from 1."""
    def spoiler(monkeypatch, bad):
        real, calls = getattr(owner, name), []

        def spoiled(*args, **kwargs):
            calls.append(None)
            return transform(real(*args, **kwargs), len(calls), bad)

        monkeypatch.setattr(owner, name, spoiled)
    return spoiler


def _bad_first(x, call, bad):
    out = np.array(x, copy=True)
    out.flat[0] = bad
    return out


def _at_call(n):
    """A transform that replaces the result of call n with the bad value."""
    return lambda x, call, bad: bad if call == n else x


def _first_record(change):
    """A transform of solve records: ``change(record, bad)`` on the first."""
    return lambda solves, call, bad: [
        dataclasses.replace(solves[0], **change(solves[0], bad)), *solves[1:]
    ]


def _solves(change):
    return _spoil(vf.VerifyContext, "solves", _first_record(change))


# check 9 takes the envelope at each of the sweep's couplings and momenta,
# then the width at p_mid for each coupling, e = 0 first
_FAST = default_config()
_ENVELOPE_WIDTH_CALL = len(_FAST.verify.e_values) * len(_FAST.momenta()) + 1

# what a check's detail prints for a NaN defect and for an infinite one:
# the NaN and the infinity, NaN for both where the check's arithmetic turns
# the infinity into a NaN (inf / inf, inf * 0), or neither
PRINTED = ("nan", "inf")
PRINTED_AS_NAN = ("nan", "nan")
NOT_PRINTED = (None, None)

# one defect per running extreme or comparison of a hard check: the check,
# its spoiler, and what its detail prints.  A margin, where a larger number
# is better, is spoiled with -bad, so that its deficit is bad.
NAN_DEFECTS = {
    "1": (vf.check_free_oracle, _spoil(vf, "h0_diag", _bad_first), PRINTED),
    "2a": (vf.check_clifford_square, _spoil(vf, "build_T", _bad_first),
           PRINTED_AS_NAN),
    "2b": (vf.check_pauli_identity, _spoil(
        vf, "spin_curl_mismatch", lambda res, call, bad: (bad, *res[1:])), PRINTED),
    "3": (vf.check_sqrt_crossval, _spoil(vf, "op_sqrt_eig", _bad_first), PRINTED),
    "4": (vf.check_kramers, _solves(lambda s, bad: {
        "residuals": {**s.residuals, "theta_commutation": bad}}), PRINTED),
    "5": (vf.check_sandwich, _spoil(
        vf.bnd, "sandwich_margins",
        lambda res, call, bad: (-bad, *res[1:]) if call == 1 else res), PRINTED),
    "6": (vf.check_counting, _solves(lambda s, bad: {"E": bad}), NOT_PRINTED),
    "7": (vf.check_gap_uniformity, _solves(lambda s, bad: {"E1": -bad}), PRINTED),
    "8-delta": (vf.check_delta_bounds, _spoil(
        vf, "delta_search", lambda got, call, bad: ([bad, *got[0][1:]], got[1])), PRINTED),
    "8-bound": (vf.check_delta_bounds, _spoil(
        vf, "_solved_bound_margins", lambda margins, call, bad: [*margins, -bad]), PRINTED),
    "9-width": (vf.check_envelope, _spoil(
        vf.bnd.BoundConstants, "upper_envelope",
        lambda res, call, bad: bad if call == _ENVELOPE_WIDTH_CALL else res),
        PRINTED),
    "9-slope": (vf.check_envelope, _spoil(
        vf.bnd.BoundConstants, "upper_envelope",
        lambda res, call, bad: bad if call == _ENVELOPE_WIDTH_CALL + 1 else res),
        PRINTED_AS_NAN),
    "10a": (vf.check_coupling_estimates, _spoil(vf, "dgamma_diag", _bad_first), PRINTED),
    "10b": (vf.check_monotonicity, _spoil(
        np.linalg, "eigvalsh", lambda x, call, bad: _bad_first(x, call, -bad)), PRINTED),
    "10c": (vf.check_interaction_trend, _spoil(vf, "interaction_norm", _at_call(3)),
            PRINTED_AS_NAN),
    "11a": (vf.check_parity, _spoil(
        vf.VerifyContext, "energies", lambda es, call, bad: [bad, *es[1:]]), PRINTED),
    "11b": (vf.check_negative_controls, _spoil(vf.kra, "check_theta_commutes", _at_call(1)),
            PRINTED),
    "inv1": (vf.check_reality_structure, _spoil(
        vf.kra, "check_reality_relations",
        lambda res, call, bad: {**res, next(iter(res)): bad}), PRINTED),
    "inv2": (vf.check_spin_difference_bounds, _spoil(
        vf.bnd, "taylor_remainder_min_eig", lambda x, call, bad: -bad), PRINTED),
    "inv3": (vf.check_quadrature_consistency, _spoil(vf, "ball_volume", _at_call(1)),
             PRINTED_AS_NAN),
    "inv4": (vf.check_delta_monotone, _spoil(
        vf.VerifyContext, "deltas", lambda ds, call, bad: [bad] if call == 1 else ds), PRINTED),
    "inv5": (vf.check_lipschitz, _spoil(vf, "lipschitz_ratio", _at_call(2)), PRINTED),
    "inv6": (vf.report_cache_identity, _spoil(vf, "ground_data", _at_call(1)), PRINTED),
}


def _defect_fails_its_check(monkeypatch, site, bad):
    """The check passes, then fails once spoiled with ``bad``, and its
    detail prints the token that its case names for ``bad``, if any."""
    check, spoil, (nan_token, inf_token) = NAN_DEFECTS[site]
    assert check(_fast_context()).passed
    spoil(monkeypatch, bad)
    result = check(_fast_context())
    assert not result.passed
    token = inf_token if math.isinf(bad) else nan_token
    assert token is None or token in result.detail


@pytest.mark.parametrize("site", NAN_DEFECTS)
def test_a_nan_defect_fails_its_check(monkeypatch, site):
    """Python's max and min drop a NaN that is not their first argument,
    and ``x > tol`` is false for a NaN x, so a check that took its verdict
    from either passed a NaN defect; the one rule of CheckResult fails it."""
    _defect_fails_its_check(monkeypatch, site, math.nan)


@pytest.mark.parametrize("site", NAN_DEFECTS)
def test_an_infinite_defect_fails_its_check(monkeypatch, site):
    """An infinite defect fails its check too, also where it drives a
    deficit to -inf (check 10a's excesses, check 11b's residuals)."""
    _defect_fails_its_check(monkeypatch, site, math.inf)


def test_a_failed_comparison_names_its_location(monkeypatch):
    """A failed comparison prints where it failed; a held one does not."""
    result = vf.CheckResult("c", [("a", 1.0, 0.0, "e=0.1, |P|=0.5"), ("b", 0.0, 0.0, "x")])
    assert not result.passed
    assert result.detail == "a: 1.000e+00 NOT <= 0.0e+00 at e=0.1, |P|=0.5; b: 0.000e+00 <= 0.0e+00"
    assert [c["at"] for c in result.comparisons] == ["e=0.1, |P|=0.5", "x"]
    NAN_DEFECTS["6"][1](monkeypatch, math.nan)
    result = vf.check_counting(_fast_context())
    assert "NOT <= 0 at e=0.0, |P|=0.0000: count 2, ordered False" in result.detail


def test_checks_7_and_8_are_the_margins_of_the_gap_report(monkeypatch):
    """Checks 7 and 8 read their floors from the bound constants, as the
    sweep's gap report does: at the desk config each deficit of check 7 is
    -direct_margin and each of check 8's explicit floor is -delta_margin,
    at every coupling and momentum, bit for bit."""
    seen, real = {}, vf._worst

    def spy(label, defects, *args):
        seen[label] = list(defects)
        return real(label, defects, *args)

    monkeypatch.setattr(vf, "_worst", spy)
    ctx = _fast_context()
    assert vf.check_gap_uniformity(ctx).passed and vf.check_delta_bounds(ctx).passed
    floor_deficits = iter(seen["explicit floor - Delta"])
    for e in ctx.coupling_ladder():
        model = vf.build_model(ctx.params_at(e))
        consts, momenta = vf.bnd.bound_constants(model), ctx.momenta()
        solves = ctx.solves(model)
        reports = [vf.bnd.theorem_gap_report(P, consts, s, d)
                   for P, s, d in zip(momenta, solves, ctx.deltas(momenta, model))]
        direct = [-r.direct_margin for r, s in zip(reports, solves) if s.E1 is not None]
        assert seen[f"e={e}: bound - min(E1-E)"] == direct
        assert [next(floor_deficits) for _ in reports] == [-r.delta_margin for r in reports]
    assert next(floor_deficits, None) is None


def test_a_nan_root_norm_fails_check_10b(monkeypatch):
    """Check 10b reads ||sqrt(T)||_2 from the eigenvalues of T that rooting
    T gave; a NaN there is a NaN margin, and fails the check."""
    _spoil(vf.bnd, "op_sqrt_eig", lambda res, call, bad: (
        (res[0], _bad_first(res[1], call, bad)) if isinstance(res, tuple) else res
    ))(monkeypatch, math.nan)
    result = vf.check_monotonicity(_fast_context())
    assert not result.passed and "nan" in result.detail


def test_check_1_is_relative_to_the_spectrum():
    """At Lambda = 1e6 the free levels reach about 1e6, so the rounding of
    the solve puts the absolute defect above ``FREE_ORACLE_TOL``; relative
    to the largest |eigenvalue| it is of order 1e-15, and check 1 passes."""
    cfg = default_config()
    ctx = vf.VerifyContext(dataclasses.replace(cfg, params=cfg.params.replace(Lambda=1e6)))
    result = vf.check_free_oracle(ctx)
    model = vf.build_model(ctx.params_at(0.0))
    absolute = [
        np.max(np.abs(solve.eigenvalues - np.sort(np.tile(vf.h0_diag(P, model), 2))))
        for P, solve in zip(ctx.momenta(), ctx.solves(model))
    ]
    assert max(absolute) > 10 * vf.FREE_ORACLE_TOL
    ((label, value, tol, _),) = (c.values() for c in result.comparisons)
    assert result.passed and label == "max |eig - closed form| / max |eig|"
    assert value <= 1e-14 and tol == vf.FREE_ORACLE_TOL


def test_a_zero_ratio_has_no_drift():
    """Checks 9 and 10c share one drift: 0 for all-zero ratios, where
    (max - min) / max is 0 / 0, and NaN if any ratio is."""
    assert vf._drift([0.0, 0.0]) == 0.0
    assert vf._drift([1.0, 0.98]) == pytest.approx(0.02)
    assert math.isnan(vf._drift([1.0, math.nan]))


def test_every_hard_check_has_a_defect_case():
    """A new hard check cannot join ALL_CHECKS without its case above."""
    _, results = vf.run_verify(_fast_context().cfg)
    hard = {r.name.split()[0] for r in results if r.hard}
    assert {site.split("-")[0] for site in NAN_DEFECTS} == hard
    assert len(hard) == 21
