import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pffiber.bounds import (
    SQRT_MONOTONE_CHUNK,
    BoundConstants,
    bound_constants,
    build_L_minus,
    build_L_plus,
    count_below,
    sandwich_margins,
    sqrt_monotone_test,
    taylor_remainder_min_eig,
    theorem_gap_report,
)
from pffiber.hamiltonian import build_H, build_model, op_sqrt_eig
from pffiber.spectral import EnergyCache, delta_gap, ground_data, solve_fiber


def test_constants_vanish_linearly_in_coupling(default_params):
    c1 = bound_constants(build_model(default_params.replace(e=0.05)))
    c2 = bound_constants(build_model(default_params.replace(e=0.1)))
    assert c2.e_c1 == pytest.approx(2 * c1.e_c1, rel=1e-12)
    assert c2.e_c2 == pytest.approx(2 * c1.e_c2, rel=1e-12)
    assert c2.e_c3 == pytest.approx(2 * c1.e_c3, rel=1e-12)
    assert c2.e2_c4 == pytest.approx(4 * c1.e2_c4, rel=1e-12)
    c0 = bound_constants(build_model(default_params.replace(e=0.0)))
    assert c0.e_c1 == c0.e_c2 == c0.e_c3 == c0.e2_c4 == 0.0


def test_L_minus_free_form(default_params):
    p = default_params.replace(e=0.0)
    model = build_model(p)
    P = np.array([0.8, 0.0, 0.0])
    lm = build_L_minus(P, model)
    expected = p.gamma * math.sqrt(0.64 + p.M**2) + (1 - p.gamma) * model.hf
    assert_allclose(lm, expected)


def test_L_minus_vacuum_entry(default_model):
    P = np.array([1.0, 0.0, 0.0])
    consts = bound_constants(default_model)
    lm = build_L_minus(P, default_model)
    expected = default_model.params.gamma * math.sqrt(2.0) - consts.e_c2
    assert lm[0] == pytest.approx(expected)


def test_L_minus_requires_subluminal(default_params):
    model = build_model(default_params.replace(gamma=1.0))
    with pytest.raises(ValueError):
        build_L_minus(np.zeros(3), model)


def test_L_plus_vacuum_entry(default_model):
    # gamma sqrt(P^2 + 2|P| n_half + 2 n_one^2 + n_kin^2 + M^2) on the vacuum
    p, n = default_model.params, default_model.norms
    P = np.array([1.3, 0.0, 0.0])
    lp = build_L_plus(P, default_model)
    expected = p.gamma * math.sqrt(
        1.69 + 2 * 1.3 * n.n_half + 2 * n.n_one**2 + n.n_kin**2 + p.M**2
    )
    assert lp[0] == pytest.approx(expected)


def test_L_plus_free_vacuum(default_params):
    p = default_params.replace(e=0.0)
    model = build_model(p)
    P = np.array([0.9, 0.0, 0.0])
    lp = build_L_plus(P, model)
    assert lp[0] == pytest.approx(p.gamma * math.sqrt(0.81 + p.M**2))


@pytest.mark.parametrize("e", [0.0, 0.05, 0.1])
@pytest.mark.parametrize("px", [0.0, 1.0, 2.0])
def test_sandwich_holds(default_params, e, px):
    model = build_model(default_params.replace(e=e))
    lower, upper, scale = sandwich_margins(np.array([px, 0.0, 0.0]), model)
    assert lower >= -1e-9 * scale
    assert upper >= -1e-9 * scale


def test_count_below_examples():
    assert count_below(np.diag([0.0, 1.0, 2.0]), 1.5) == 2
    assert count_below(np.array([0.0, 1.0, 2.0]), 0.0) == 0


def test_count_below_matches_diagonal_enumeration(default_model):
    consts = bound_constants(default_model)
    P = np.array([0.7, 0.0, 0.0])
    lm = np.kron(np.ones(2), build_L_minus(P, default_model))
    sigma = consts.sigma_minus(P)
    # two spin copies of the vacuum entry sit below Sigma_-
    assert count_below(lm, sigma) == 2
    h = build_H(P, default_model)
    assert count_below(h, sigma) <= count_below(lm, sigma)


@pytest.mark.parametrize("e", [0.0, 0.05, 0.1])
def test_each_closed_form_is_its_old_inline_form(default_params, e):
    """Sigma_-, the lower envelope and the diagonal of L_- are l_minus at
    H_f = m_ph, 0 and H_f, and the two gap floors are the forms that the
    gap report and verify's checks 7 and 8 wrote out: equal bit for bit."""
    model = build_model(default_params.replace(e=e))
    c, p = bound_constants(model), model.params
    for P in ([0.0, 0.0, 0.0], [0.7, 0.0, 0.0], [0.3, -0.2, 0.5], [2.0, 0.0, 0.0]):
        P = np.array(P)
        base = p.gamma * math.sqrt(float(np.dot(P, P)) + p.M**2)
        assert c.sigma_minus(P) == base + (1.0 - p.gamma - c.e_c1) * p.m_ph - c.e_c2
        assert c.lower_envelope(P) == base - c.e_c2
        lm = base + (1.0 - p.gamma - c.e_c1) * model.hf - c.e_c2
        assert np.array_equal(build_L_minus(P, model), lm)
        assert np.array_equal(c.l_minus(P, model.hf), lm)
        free = p.gamma * math.sqrt(float(P @ P) + p.M**2)
        upper = c.upper_envelope(P)
        assert c.delta_floor(P) == (1.0 - p.gamma) * p.m_ph - (c.e_c2 + upper - free)
    assert c.gap_floor() == (1.0 - c.e_c1 - p.gamma) * p.m_ph - c.e_c2


def test_the_vacuum_value_of_L_minus_has_no_H_f_term():
    """Where an overflowing coupling makes eC1 = eC2 = inf, the lower
    envelope reads gamma sqrt(P^2 + M^2) - eC2 = -inf, not the NaN of
    (1 - gamma - eC1) * 0.0 that an H_f term at h = 0 would add."""
    inf = math.inf
    c = BoundConstants(gamma=0.5, M=1.0, m_ph=0.5, e_c1=inf, e_c_prime=inf,
                       e_c2=inf, e_c3=inf, e2_c4=inf)
    assert c.lower_envelope(np.zeros(3)) == c.l_minus(np.zeros(3)) == -inf
    assert math.isnan(c.l_minus(np.zeros(3), 0.0))


def test_corollary_bounds_free_collapse(default_params):
    consts = bound_constants(build_model(default_params.replace(e=0.0)))
    P = np.array([0.5, 0.0, 0.0])
    lower, upper = consts.lower_envelope(P), consts.upper_envelope(P)
    free = 0.5 * math.sqrt(0.25 + 1.0)
    assert lower == pytest.approx(free)
    assert upper == pytest.approx(free)


def test_energy_inside_envelope(default_model):
    consts = bound_constants(default_model)
    for px in (0.0, 1.0, 2.0):
        P = np.array([px, 0.0, 0.0])
        lower, upper = consts.lower_envelope(P), consts.upper_envelope(P)
        e0 = ground_data(P, default_model)
        assert lower - 1e-9 <= e0 <= upper + 1e-9


def test_envelope_width_order_e(default_params):
    P = np.array([1.0, 0.0, 0.0])
    widths = {}
    for e in (0.0, 0.05, 0.1):
        consts = bound_constants(build_model(default_params.replace(e=e)))
        lo, up = consts.lower_envelope(P), consts.upper_envelope(P)
        widths[e] = up - lo
    assert widths[0.0] == pytest.approx(0.0, abs=1e-14)
    ratio1 = widths[0.05] / 0.05
    ratio2 = widths[0.1] / 0.1
    assert abs(ratio2 - ratio1) <= 0.05 * ratio1


def test_gap_report_free_theory(default_params):
    p = default_params.replace(e=0.0)
    model = build_model(p)
    consts, cache = bound_constants(model), EnergyCache()
    P = np.array([1.0, 0, 0])
    solve = solve_fiber(P, model, cache)
    delta = delta_gap(P, model, cache=cache)
    rep = theorem_gap_report(P, consts, solve, delta)
    # at e = 0 the gap bound is (1 - gamma) m_ph exactly and margins are clean
    assert delta >= (1 - p.gamma) * p.m_ph - 1e-12
    assert rep.delta_margin >= -1e-12
    assert rep.chain_margin >= 0.0
    assert rep.direct_margin >= 0.0
    assert count_below(solve.eigenvalues, consts.sigma_minus(P)) == 2
    assert rep.envelope_ok


def test_gap_report_with_coupling(default_model):
    consts, cache = bound_constants(default_model), EnergyCache()
    for px in (0.0, 2.0):
        P = np.array([px, 0, 0])
        solve = solve_fiber(P, default_model, cache)
        rep = theorem_gap_report(
            P, consts, solve, delta_gap(P, default_model, cache=cache)
        )
        sigma = consts.sigma_minus(P)
        assert solve.E < sigma <= solve.E1
        assert count_below(solve.eigenvalues, sigma) == 2
        assert rep.delta_margin >= -1e-9
        assert rep.chain_margin >= -1e-9
        assert rep.envelope_ok


def test_taylor_remainder_positive(default_model):
    for px in (0.0, 1.0, 2.0):
        scale = 1.0 + px
        assert taylor_remainder_min_eig(
            np.array([px, 0.0, 0.0]), default_model
        ) >= -1e-9 * scale


def test_monotone_suite_small():
    assert sqrt_monotone_test(dim=8, trials=200, rng_seed=7) >= -1e-10


def test_monotone_suite_keeps_a_nan_margin(monkeypatch):
    """A NaN margin in the first chunk is the worst margin: Python's min
    kept the running worst instead, and check 10b passed."""
    real, calls = np.linalg.eigvalsh, []

    def spoiled(a):
        out = real(a)
        if not calls:
            out[0, 0] = math.nan
        calls.append(None)
        return out

    monkeypatch.setattr(np.linalg, "eigvalsh", spoiled)
    assert math.isnan(sqrt_monotone_test(dim=4, trials=40, rng_seed=1))
    assert len(calls) > 1


def _sqrt_monotone_per_trial(dim, trials, rng_seed):
    """The trial-by-trial loop that :func:`sqrt_monotone_test` batches."""
    rng = np.random.default_rng(rng_seed)
    worst = math.inf
    for _ in range(trials):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        s = g.conj().T @ g
        w = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        t = s + w.conj().T @ w
        rt = op_sqrt_eig(t)
        diff = rt - op_sqrt_eig(s)
        # ||sqrt(T)||_2 from the eigenvalues of T, as the suite reads it
        norm = math.sqrt(max(float(np.linalg.eigh(t)[0][-1]), 0.0))
        margin = float(np.linalg.eigvalsh(diff)[0]) / norm
        worst = min(worst, margin)
    return worst


@pytest.mark.parametrize("dim", [1, 32])
@pytest.mark.parametrize(
    "trials",
    [1, SQRT_MONOTONE_CHUNK - 1, SQRT_MONOTONE_CHUNK, SQRT_MONOTONE_CHUNK + 1, 1000],
)
def test_monotone_suite_equals_the_per_trial_loop(dim, trials):
    """Each matrix of a chunk goes through the LAPACK calls of a lone
    trial, so the worst margin is the loop's bit for bit."""
    assert sqrt_monotone_test(dim, trials, rng_seed=trials) == (
        _sqrt_monotone_per_trial(dim, trials, rng_seed=trials)
    )


def test_the_root_norm_is_read_from_the_eigenvalues(rng):
    """||sqrt(T)||_2 of a PSD T is the square root of its largest
    eigenvalue: op_sqrt_eig gives it beside the same root, and it is the
    2-norm of that root to rounding."""
    g = rng.standard_normal((5, 12, 12)) + 1j * rng.standard_normal((5, 12, 12))
    t = g.conj().swapaxes(-1, -2) @ g
    root, norm = op_sqrt_eig(t, with_norm=True)
    assert np.array_equal(root, op_sqrt_eig(t))
    assert_allclose(norm, np.linalg.norm(root, ord=2, axis=(-2, -1)), rtol=1e-14)


def test_monotone_commuting_diagonals():
    # S = diag(1,4), T = diag(4,9): sqrt(T) - sqrt(S) = diag(1,1) >= 0
    s, t = np.diag([1.0, 4.0]), np.diag([4.0, 9.0])
    diff = op_sqrt_eig(t) - op_sqrt_eig(s)
    assert_allclose(diff, np.eye(2))


def test_monotone_dim_guard():
    with pytest.raises(ValueError):
        sqrt_monotone_test(dim=64, trials=1)
