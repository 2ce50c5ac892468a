"""Rotation group of the mode grid and the orbit reduction of Delta(P)."""

import numpy as np
import pytest

from pffiber.modes import (
    build_mode_set,
    dispersion,
    form_factors,
    grid_rotations,
    orbit_representatives,
)
from pffiber.spectral import default_trial_set, delta_gap, ground_data, stabilizer

P_ALONG_X = np.array([0.9345368022869702, 0.0, 0.0])
P_GENERIC = np.array([0.31, -0.47, 0.62])


def _rotations(params):
    return grid_rotations(form_factors(build_mode_set(params), params))


@pytest.mark.parametrize("n_dirs, order", [(2, 8), (6, 24), (8, 24), (12, 12)])
def test_group_order_per_direction_set(default_params, n_dirs, order):
    group = _rotations(default_params.replace(n_dirs=n_dirs))
    assert len(group) == order
    keys = {g.tobytes() for g in group}
    assert np.eye(3).tobytes() in keys
    for a in group:
        assert np.allclose(a @ a.T, np.eye(3)) and np.linalg.det(a) > 0
        for b in group:
            assert (a @ b).tobytes() in keys  # closed under composition


def test_model_carries_the_group(default_model):
    assert len(default_model.rotations) == 24


def test_ground_energy_invariant_under_the_group(default_model):
    rng = np.random.default_rng(2026)
    for _ in range(3):
        P = rng.uniform(-1.0, 1.0, size=3)
        e_p = ground_data(P, default_model)[0]
        for r in default_model.rotations:
            assert abs(ground_data(r @ P, default_model)[0] - e_p) <= 1e-12


def test_stabilizers(default_model):
    assert len(stabilizer(default_model.rotations, np.zeros(3))) == 24
    assert len(stabilizer(default_model.rotations, P_ALONG_X)) == 4
    assert len(stabilizer(default_model.rotations, P_GENERIC)) == 1


def test_orbit_representatives_along_x(default_model):
    trials = default_trial_set(default_model)
    stab = stabilizer(default_model.rotations, P_ALONG_X)
    reps = orbit_representatives(trials, stab)
    # k = 0, and per radial shell: +x, -x and the four transverse directions
    assert len(trials) == 13 and len(reps) == 7
    assert np.array_equal(reps[0], np.zeros(3))


def _delta_all_trials(P, model):
    e_p = ground_data(P, model)[0]
    return min(
        ground_data(P - k, model)[0] + float(dispersion(k, model.params.m_ph)) - e_p
        for k in default_trial_set(model)
    )


@pytest.mark.parametrize("P", [P_ALONG_X, P_GENERIC])
def test_orbit_reduced_delta_equals_full_trial_set(default_model, P):
    assert abs(delta_gap(P, default_model) - _delta_all_trials(P, default_model)) <= 1e-12
