"""Delta(P) skips the trials that the corollary lower bound
E(q) >= gamma sqrt(q^2 + M^2) - eC' rules out.  The pruned Delta is checked
bit for bit against a brute-force minimum over every orbit trial, with a
negative control that lowers eC' until the pruning drops a minimizer."""

import dataclasses
import math

import numpy as np
import pytest

from pffiber import bounds, verify
from pffiber.config import default_config
from pffiber.hamiltonian import _as_model, build_model
from pffiber.modes import dispersion, orbit_representatives, stabilizer
from pffiber.spectral import (
    EnergyCache,
    default_trial_set,
    delta_gaps,
    delta_trials,
    ground_batch,
)

DIRECTION_COUNTS = (2, 6, 8, 12)
COUPLINGS = (0.0, 0.1, 0.3)
ALONG_X = [np.array([0.7, 0.0, 0.0]), np.array([2.0, 0.0, 0.0])]
# the energies of each case, so that the negative control solves nothing new;
# every entry is a pure function of its key
_CACHES = {}


def _model(default_params, n_dirs, n_max, e):
    # one radial shell keeps the 12-direction grid at n = 650 for N_max 2
    return build_model(
        default_params.replace(n_shells=1, n_dirs=n_dirs, N_max=n_max, e=e)
    )


def _momenta(n_dirs, n_max):
    rng = np.random.default_rng(1000 * n_dirs + n_max)
    return np.array([*ALONG_X, rng.uniform(-1.0, 1.0, size=3)])


def _brute_delta(P, model, cache) -> float:
    """min over every orbit trial k of E(P - k) + omega(k) - E(P), the k = 0
    trial included, from one ground_batch of P and every P - k."""
    ks = orbit_representatives(default_trial_set(model), stabilizer(model.rotations, P))
    momenta = [P, *(P - k for k in ks)]
    e_p, *rest = (t[0] for t in ground_batch(momenta, model, cache=cache))
    m_ph = model.params.m_ph
    return float(min(e + float(dispersion(k, m_ph)) - e_p for e, k in zip(rest, ks)))


def _case(default_params, n_dirs, n_max, e):
    """(model, momenta, pruned Delta, brute-force Delta) of one case.  The
    pruned Delta is solved first, on its own, and the brute force reads its
    energies and solves the rest."""
    model = _model(default_params, n_dirs, n_max, e)
    P = _momenta(n_dirs, n_max)
    cache = _CACHES.setdefault((n_dirs, n_max, e), EnergyCache())
    pruned = delta_gaps(P, model, cache=cache)
    brute = [_brute_delta(p, model, cache) for p in P]
    return model, P, pruned, brute


@pytest.mark.parametrize("e", COUPLINGS)
@pytest.mark.parametrize("n_max", [1, 2])
@pytest.mark.parametrize("n_dirs", DIRECTION_COUNTS)
def test_pruned_delta_equals_the_brute_force_minimum(default_params, n_dirs, n_max, e):
    model, P, pruned, brute = _case(default_params, n_dirs, n_max, e)
    assert pruned == brute
    kept, every = _kept_counts(model, P)
    assert sum(kept) < sum(every)  # the equality holds with trials skipped


def test_lowering_e_c_prime_by_0_2_breaks_the_equality(default_params, monkeypatch):
    """eC' - 0.2 is no lower bound: it drops trials that hold the minimum,
    and Delta then differs from the brute force in some case."""
    real = bounds.bound_constants

    def lowered(model):
        consts = real(model)
        return dataclasses.replace(consts, e_c_prime=consts.e_c_prime - 0.2)

    monkeypatch.setattr(bounds, "bound_constants", lowered)
    differ = 0
    for n_dirs in DIRECTION_COUNTS:
        for n_max in (1, 2):
            for e in COUPLINGS:
                cache = _CACHES.setdefault((n_dirs, n_max, e), EnergyCache())
                model = _model(default_params, n_dirs, n_max, e)
                P = _momenta(n_dirs, n_max)
                brute = [_brute_delta(p, model, cache) for p in P]
                differ += sum(
                    a != b for a, b in zip(delta_gaps(P, model, cache=cache), brute)
                )
    assert differ > 0


def _kept_counts(params_or_model, P, trial_k_set=None):
    model = _as_model(params_or_model)
    energies = [t[0] for t in ground_batch(P, model)]
    kept = delta_trials(P, model, energies, trial_k_set)
    every = [
        orbit_representatives(
            default_trial_set(model) if trial_k_set is None else trial_k_set,
            stabilizer(model.rotations, p),
        )
        for p in P
    ]
    return [len(k) for k in kept], [len(a) for a in every]


P_X = np.array([[0.7, 0.0, 0.0]])


def test_the_default_grid_prunes_along_x(default_params):
    """The positive control of the cases below: 3 of 7 orbit trials kept."""
    assert _kept_counts(default_params, P_X) == ([3], [7])


def test_no_pruning_without_k_zero(default_params):
    trials = default_trial_set(build_model(default_params))[1:]
    kept, every = _kept_counts(default_params, P_X, trials)
    assert kept == every == [6]


def test_no_pruning_at_gamma_one(default_params):
    """At e = 0, 1 - gamma - eC' = 0 at gamma = 1: only gamma < 1 fails."""
    assert _kept_counts(default_params.replace(e=0.0, gamma=0.99), P_X)[0] != [7]
    kept, every = _kept_counts(default_params.replace(e=0.0, gamma=1.0), P_X)
    assert kept == every == [7]


def test_no_pruning_where_the_bound_lacks_its_h_f_term(default_params):
    """1 - gamma - eC' < 0: the H_f term of L_- is negative, and
    gamma sqrt(q^2 + M^2) - eC' no lower bound."""
    params = default_params.replace(e=0.6)
    consts = bounds.bound_constants(build_model(params))
    assert 1.0 - params.gamma - consts.e_c_prime < 0.0
    kept, every = _kept_counts(params, P_X)
    assert kept == every == [7]


def test_e_c_prime_is_the_direction_free_e_c(default_model):
    """eC' takes the full n_half where eC takes its u-component: at e = 0.1
    on the default grid 0.1062 against 0.1031."""
    consts = bounds.bound_constants(default_model)
    p, n = default_model.params, default_model.norms
    assert np.all(n.n_half_comp <= n.n_half)
    assert consts.e_c_prime == p.gamma * (n.n_half + 3.0 * math.pi / p.M * n.n_curl)
    assert round(consts.e_c_prime, 4) == 0.1062 and round(consts.e_c1, 4) == 0.1031


def test_check_8_reads_the_bound_from_the_cache(monkeypatch):
    """The margins of check 8 cover each P and each kept P - k, with no new
    solve, and the check fails once eC' no longer bounds E."""
    cfg = default_config()
    ctx = verify.VerifyContext(cfg)
    model = build_model(ctx.params_at(0.1))
    consts = bounds.bound_constants(model)
    momenta = ctx.momenta()
    ctx.deltas(momenta, model)
    misses = ctx.cache.misses
    margins = verify._solved_bound_margins(ctx, model, consts)
    assert ctx.cache.misses == misses
    energies = ctx.energies(momenta, model)
    kept = delta_trials(momenta, model, energies)
    assert len(margins) == len(momenta) + sum(len(k) - 1 for k in kept)
    assert min(margins) > 0.1
    # 3 couplings x 11 sweep momenta, and 8 + 19 + 25 kept trial momenta
    result = verify.check_delta_bounds(verify.VerifyContext(cfg))
    assert result.passed and "at the 85 momenta solved for Delta" in result.detail

    real = bounds.bound_constants
    monkeypatch.setattr(
        bounds, "bound_constants",
        lambda m: dataclasses.replace(real(m), e_c_prime=real(m).e_c_prime - 0.2),
    )
    result = verify.check_delta_bounds(verify.VerifyContext(cfg))
    assert not result.passed and "direction-free bound" in result.detail
