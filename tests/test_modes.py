import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from pffiber.modes import (
    DIRECTION_COUNTS,
    GridSpecError,
    ModelParams,
    TWO_PI_CUBED,
    ball_volume,
    build_mode_set,
    coupling_norms,
    dispersion,
    dreibein,
    form_factors,
    gauss_legendre,
    grid_rotations,
    stabilizer,
)


def test_dispersion_values():
    assert dispersion([0.0, 0.0, 0.0], 0.3) == pytest.approx(0.3)
    assert dispersion([3.0, 0.0, 0.0], 4.0) == pytest.approx(5.0)


def test_dispersion_massless_is_modulus(rng):
    k = rng.standard_normal(3)
    assert dispersion(k, 0.0) == pytest.approx(np.linalg.norm(k))


def test_dreibein_pole_convention():
    e1, e2 = dreibein([0.0, 0.0, 1.0])
    assert_allclose(e1, [1.0, 0.0, 0.0])
    assert_allclose(e2, [0.0, 1.0, 0.0])
    e1, e2 = dreibein([0.0, 0.0, -1.0])
    assert_allclose(e1, [1.0, 0.0, 0.0])
    assert_allclose(e2, [0.0, -1.0, 0.0])


def test_dreibein_orthonormal_right_handed(rng):
    for _ in range(50):
        k = rng.standard_normal(3)
        e1, e2 = dreibein(k)
        khat = k / np.linalg.norm(k)
        assert abs(e1 @ k) < 1e-12 and abs(e2 @ k) < 1e-12
        assert abs(e1 @ e2) < 1e-12
        assert np.linalg.norm(e1) == pytest.approx(1.0)
        assert np.linalg.norm(e2) == pytest.approx(1.0)
        assert_allclose(np.cross(e1, e2), khat, atol=1e-12)


def test_dreibein_rejects_origin():
    with pytest.raises(ValueError):
        dreibein([0.0, 0.0, 0.0])


def test_mode_count_small_grid():
    p = ModelParams(e=0.1, gamma=0.5, M=1.0, m_ph=0.5, Lambda=1.0,
                    n_shells=1, n_dirs=2, N_max=1)
    modes = build_mode_set(p)
    assert modes.n_modes == 4  # 2 k-points x 2 polarizations


def test_weight_sum_matches_shell_volume(default_params):
    modes = build_mode_set(default_params)
    vol = ball_volume(default_params.Lambda, default_params.k_min)
    assert modes.kpoint_weight_sum() == pytest.approx(vol, rel=1e-13)


def test_mode_set_deterministic(default_params):
    a = build_mode_set(default_params)
    b = build_mode_set(default_params)
    for name in ("k", "lam", "eps", "weight"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_mode_set_geometry(default_params):
    modes = build_mode_set(default_params)
    kset = {tuple(np.round(k, 12)): w for k, w in zip(modes.k, modes.weight)}
    for k, eps, weight in zip(modes.k, modes.eps, modes.weight):
        assert np.linalg.norm(k) <= default_params.Lambda + 1e-12
        assert abs(eps @ k) < 1e-12
        assert np.linalg.norm(eps) == pytest.approx(1.0)
        # closure under k -> -k with equal weight
        assert kset[tuple(np.round(-k, 12))] == pytest.approx(weight)
    # the two polarizations at the same k are orthogonal
    for k1, k2, eps1, eps2 in zip(
        modes.k[::2], modes.k[1::2], modes.eps[::2], modes.eps[1::2]
    ):
        assert np.array_equal(k1, k2)
        assert abs(eps1 @ eps2) < 1e-12


def test_mode_dispersion_bounds(default_model):
    table = default_model.table
    assert np.all(table.omega >= default_model.params.m_ph)
    assert np.all(np.linalg.norm(table.k, axis=1) <= table.omega + 1e-12)


def test_unsupported_direction_family():
    with pytest.raises(GridSpecError):
        ModelParams(e=0.0, gamma=0.5, M=1.0, m_ph=0.5, Lambda=1.0, n_dirs=0)
    p = ModelParams(e=0.0, gamma=0.5, M=1.0, m_ph=0.5, Lambda=1.0, n_dirs=7)
    with pytest.raises(GridSpecError):
        build_mode_set(p)


@pytest.mark.parametrize(
    "bad",
    [
        dict(gamma=0.0),
        dict(gamma=1.2),
        dict(e=-0.1),
        dict(M=0.0),
        dict(m_ph=-1.0),
        dict(Lambda=0.0),
        dict(N_max=-1),
    ],
)
def test_params_validation(bad):
    base = dict(e=0.1, gamma=0.5, M=1.0, m_ph=0.5, Lambda=1.0)
    with pytest.raises(ValueError):
        ModelParams(**{**base, **bad})


def test_form_factors_vanish_at_zero_coupling(default_params):
    p = default_params.replace(e=0.0)
    table = form_factors(build_mode_set(p), p)
    assert np.all(table.f == 0.0)


def test_form_factor_magnitude(default_params):
    modes = build_mode_set(default_params)
    table = form_factors(modes, default_params)
    expected = default_params.e * np.sqrt(modes.weight) / np.sqrt(
        2.0 * TWO_PI_CUBED * table.omega
    )
    assert_allclose(np.linalg.norm(table.f, axis=1), expected, rtol=1e-13)
    assert np.isrealobj(table.f)


def test_form_factor_linear_in_coupling(default_params):
    modes = build_mode_set(default_params)
    t1 = form_factors(modes, default_params)
    t2 = form_factors(modes, default_params.replace(e=2 * default_params.e))
    assert_allclose(t2.f, 2.0 * t1.f, rtol=1e-14)


def test_norms_zero_coupling(default_params):
    p = default_params.replace(e=0.0)
    n = coupling_norms(form_factors(build_mode_set(p), p))
    assert n.n_half == n.n_one == n.n_kin == n.n_curl == 0.0


def test_norms_linear_in_coupling(default_params):
    modes = build_mode_set(default_params)
    n1 = coupling_norms(form_factors(modes, default_params))
    n2 = coupling_norms(
        form_factors(modes, default_params.replace(e=2 * default_params.e))
    )
    for attr in ("n_half", "n_one", "n_kin", "n_curl"):
        assert getattr(n2, attr) == pytest.approx(2 * getattr(n1, attr), rel=1e-14)


def test_n_half_against_independent_quadrature():
    # fine radial grid vs scipy quadrature of the radial integral
    p = ModelParams(e=0.2, gamma=0.5, M=1.0, m_ph=0.5, Lambda=1.0,
                    n_shells=24, n_dirs=6, N_max=0)
    n = coupling_norms(form_factors(build_mode_set(p), p))
    integrand = lambda r: 4 * math.pi * r**2 / (r**2 + p.m_ph**2)
    ref, _ = quad(integrand, 0.0, p.Lambda)
    expected = p.e**2 / TWO_PI_CUBED * ref
    assert n.n_half**2 == pytest.approx(expected, rel=1e-9)


def test_n_half_component_against_independent_quadrature():
    # per-component norm picks up the transverse angular factor 2/3
    p = ModelParams(e=0.2, gamma=0.5, M=1.0, m_ph=0.5, Lambda=1.0,
                    n_shells=24, n_dirs=6, N_max=0)
    n = coupling_norms(form_factors(build_mode_set(p), p))
    integrand = lambda r: 4 * math.pi * r**2 / (r**2 + p.m_ph**2)
    ref, _ = quad(integrand, 0.0, p.Lambda)
    expected = (2.0 / 3.0) * 0.5 * p.e**2 / TWO_PI_CUBED * ref
    assert n.n_half_comp[0] ** 2 == pytest.approx(expected, rel=1e-9)


def test_norms_monotone_in_cutoff_and_coupling(default_params):
    base = coupling_norms(form_factors(build_mode_set(default_params), default_params))
    bigger_lambda = default_params.replace(Lambda=1.5)
    grown = coupling_norms(form_factors(build_mode_set(bigger_lambda), bigger_lambda))
    stronger = default_params.replace(e=0.2)
    boosted = coupling_norms(form_factors(build_mode_set(stronger), stronger))
    for attr in ("n_half", "n_one", "n_kin", "n_curl"):
        assert getattr(grown, attr) > getattr(base, attr)
        assert getattr(boosted, attr) > getattr(base, attr)


def test_smooth_envelope_tapers_cutoff(default_params):
    p = default_params.replace(envelope_width=0.4)
    modes = build_mode_set(p)
    sharp = form_factors(modes, default_params)
    smooth = form_factors(modes, p)
    r = np.linalg.norm(modes.k, axis=1)
    outer = r > (1 - 0.4) * p.Lambda
    assert np.all(smooth.g[outer] < sharp.g[outer])
    assert_allclose(smooth.g[~outer], sharp.g[~outer])


@pytest.mark.parametrize("n_dirs", DIRECTION_COUNTS)
def test_stabilizer_matches_the_elementwise_test(default_params, n_dirs):
    """Same elements in the same order as testing R P == P one R at a
    time."""
    params = default_params.replace(n_dirs=n_dirs)
    rotations = grid_rotations(form_factors(build_mode_set(params), params))
    momenta = [
        np.zeros(3),
        np.array([0.7, 0.0, 0.0]),
        np.array([0.0, 0.0, -0.7]),
        np.array([0.4, 0.4, 0.4]),
        np.array([0.3, 0.3, 0.0]),
        np.array([0.4, 0.4, 0.25]),
        np.array([0.93, -0.8, 0.0]),
        np.array([0.31, -0.47, 0.62]),
    ]
    for P in momenta:
        want = np.array([r for r in rotations if np.array_equal(r @ P, P)])
        got = stabilizer(rotations, P)
        assert got.shape == want.shape and np.array_equal(got, want)


def test_gauss_legendre_agrees_with_leggauss():
    """Nodes within 1e-15 of numpy's ``leggauss`` for n <= 32, weights
    within 5e-13 relative: against a 40-digit reference, ``leggauss``'s own
    weights err by up to 3e-13 (n = 30) and these by up to 3e-14."""
    for n in range(1, 33):
        x, w = gauss_legendre(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(x - ref_x)) <= 1e-15
        assert np.max(np.abs(w / ref_w - 1.0)) <= 5e-13


@pytest.mark.parametrize("n", [1, 2, 3, 7, 32, 4096])
def test_gauss_legendre_integrates_degree_2n_minus_1_exactly(n):
    """sum_i w_i P_k(x_i) = int P_k = 2 delta_k0 for every k < 2n, to
    1e-14, and not for P_{2n}, whose integral the rule misses; the nodes
    ascend and the rule is symmetric."""
    x, w = gauss_legendre(n)
    assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])
    below, p = np.zeros_like(x), np.ones_like(x)
    worst = abs(w.sum() - 2.0)
    for k in range(1, 2 * n):
        below, p = p, ((2 * k - 1) * x * p - (k - 1) * below) / k
        worst = max(worst, abs(np.dot(w, p)))
    assert worst <= 1e-14
    p = ((4 * n - 1) * x * p - (2 * n - 1) * below) / (2 * n)
    assert abs(np.dot(w, p)) > 1e-3
