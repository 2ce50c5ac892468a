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
    assert result.detail == (
        "1000 draws x 8 inequalities, 0 violations beyond 1.0e-10 "
        "(worst excess -1.813e-01)"
    )


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
    result = vf.check_monotonicity(vf.VerifyContext(default_config()))
    assert result.passed
    assert result.detail == "1000 trials at dim 12; worst scaled margin 2.226e-03"


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
    """Same violations and the same stream consumed, for round counts on
    either side of a chunk.  The worst excess agrees to a few ulps, not bit
    for bit: the loop's norms and products go through BLAS dot and gemv
    kernels, whose summation order a stacked scatter does not repeat."""
    _, table, basis = vf._property_basis(vf.VerifyContext(default_config()))
    chunk = vf.COUPLING_CHUNK_BYTES // (128 * basis.dim)
    assert chunk > 2
    for n_rounds in (1, chunk - 1, chunk, chunk + 1, 1000):
        rng, ref_rng = np.random.default_rng(n_rounds), np.random.default_rng(n_rounds)
        got = vf.coupling_estimate_suite(basis, table, rng, n_rounds, tol)
        want = _coupling_suite_per_round(basis, table, ref_rng, n_rounds, tol)
        assert got[0] == want[0]
        assert abs(got[1] - want[1]) <= 64 * np.finfo(float).eps * max(1.0, abs(want[1]))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert want[0] > 0 if tol < 0 else want[0] == 0


def _fast_context():
    """The desk config with fewer quadrature and property draws."""
    cfg = default_config()
    return vf.VerifyContext(dataclasses.replace(
        cfg, verify=dataclasses.replace(cfg.verify, n_sqrt_draws=2, n_property_vectors=25)
    ))


def _spoil(owner, name, transform):
    """A spoiler: it monkeypatches owner.<name> to return transform(result,
    call) of each result, call counting from 1."""
    def spoiler(monkeypatch):
        real, calls = getattr(owner, name), []

        def spoiled(*args, **kwargs):
            calls.append(None)
            return transform(real(*args, **kwargs), len(calls))

        monkeypatch.setattr(owner, name, spoiled)
    return spoiler


def _nan_first(x, call):
    out = np.array(x, copy=True)
    out.flat[0] = math.nan
    return out


def _first_record(change):
    """A transform of solve records: ``change(record)`` on the first."""
    return lambda solves, call: [
        dataclasses.replace(solves[0], **change(solves[0])), *solves[1:]
    ]


def _solves(change):
    return _spoil(vf.VerifyContext, "solves", _first_record(change))


# one NaN defect per running extreme of a hard check: the check, its
# spoiler, and whether the check's detail prints the NaN
NAN_DEFECTS = {
    "1": (vf.check_free_oracle, _spoil(vf, "h0_diag", _nan_first), True),
    "3": (vf.check_sqrt_crossval, _spoil(vf, "op_sqrt_eig", _nan_first), True),
    "4": (vf.check_kramers, _solves(lambda s: {
        "residuals": {**s.residuals, "theta_commutation": math.nan}}), True),
    "5": (vf.check_sandwich, _solves(lambda s: {"sandwich": (math.nan, *s.sandwich[1:])}),
          True),
    "6": (vf.check_counting, _solves(lambda s: {"E": math.nan}), False),
    "7": (vf.check_gap_uniformity, _solves(lambda s: {"E1": math.nan}), True),
    "8-delta": (vf.check_delta_bounds, _spoil(
        vf, "delta_search", lambda got, call: ([math.nan, *got[0][1:]], got[1])), True),
    "8-bound": (vf.check_delta_bounds, _spoil(
        vf, "_solved_bound_margins", lambda margins, call: [*margins, math.nan]), True),
    "10a": (vf.check_coupling_estimates, _spoil(vf, "dgamma_diag", _nan_first), True),
    "10c": (vf.check_interaction_trend, _spoil(
        vf, "interaction_norm", lambda x, call: math.nan if call == 3 else x), True),
    "11a": (vf.check_parity, _spoil(
        vf.VerifyContext, "energies", lambda es, call: [math.nan, *es[1:]]), True),
    "inv1": (vf.check_reality_structure, _spoil(
        vf.kra, "check_reality_relations", lambda res, call: {**res, next(iter(res)): math.nan}),
        True),
    "inv2": (vf.check_spin_difference_bounds, _spoil(
        vf.bnd, "taylor_remainder_min_eig", lambda x, call: math.nan), True),
    "inv5": (vf.check_lipschitz, _spoil(
        vf, "lipschitz_ratio", lambda x, call: math.nan if call == 2 else x), True),
}


@pytest.mark.parametrize("site", NAN_DEFECTS)
def test_a_nan_defect_fails_its_check(monkeypatch, site):
    """Python's max and min drop a NaN that is not their first argument, so
    a running extreme taken with them passed a NaN defect; each check now
    fails on one."""
    check, spoil, printed = NAN_DEFECTS[site]
    ctx = _fast_context()
    assert check(ctx).passed
    spoil(monkeypatch)
    result = check(_fast_context())
    assert not result.passed
    assert "nan" in result.detail or not printed
