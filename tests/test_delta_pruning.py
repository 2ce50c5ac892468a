"""Delta(P) skips the trials that two tiers of lower bounds on E(P - k)
rule out: the corollary bound E(q) >= gamma sqrt(q^2 + M^2) - eC', and the
operator certificate of :func:`pffiber.certificate.certify_block`.  The
pruned Delta is checked bit for bit against a brute-force minimum over
every orbit trial, with negative controls that lower eC' or drop the
certificate's resolvent term until the pruning drops a minimizer.  The
certificate itself is checked on random blocks against ``eigvalsh``, and
on every query of each case against the Cholesky certificate of
:mod:`oracles`."""

import dataclasses
import math

import numpy as np
import pytest

from pffiber import bounds, certificate, verify
from pffiber.config import default_config
from pffiber.certificate import _z_diagonal, certify_block
from pffiber.hamiltonian import _as_model, build_model
from pffiber.modes import dispersion, orbit_representatives, stabilizer
from pffiber.spectral import (
    PRUNE_MARGIN,
    EnergyCache,
    default_trial_set,
    delta_search,
    delta_trials,
    ground_batch,
)

from oracles import cholesky_succeeds, compare_certificates, dense_gram

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
    e_p, *rest = ground_batch(momenta, model, cache=cache)
    m_ph = model.params.m_ph
    return float(min(e + float(dispersion(k, m_ph)) - e_p for e, k in zip(rest, ks)))


def _case(default_params, n_dirs, n_max, e):
    """(model, momenta, pruned Delta, brute-force Delta) of one case.  The
    pruned Delta is solved first, on its own, and the brute force reads its
    energies and solves the rest."""
    model, P, pruned, _ = _pruned_case(default_params, n_dirs, n_max, e)
    cache = _CACHES[n_dirs, n_max, e]
    brute = [_brute_delta(p, model, cache) for p in P]
    return model, P, pruned, brute


# the (model, momenta, Delta, trials) of each case, once per session, and
# the (certify_block, Cholesky oracle) verdicts of each certificate query
# that its search made
_PRUNED = {}
_VERDICTS = {}


def _pruned_case(default_params, n_dirs, n_max, e):
    key = (n_dirs, n_max, e)
    if key not in _PRUNED:
        model = _model(default_params, n_dirs, n_max, e)
        P = _momenta(n_dirs, n_max)
        cache = _CACHES.setdefault(key, EnergyCache())
        with pytest.MonkeyPatch.context() as patch:
            _VERDICTS[key] = compare_certificates(patch)
            _PRUNED[key] = (model, P, *delta_search(P, model, cache=cache))
    return _PRUNED[key]


@pytest.mark.parametrize("e", COUPLINGS)
@pytest.mark.parametrize("n_max", [1, 2])
@pytest.mark.parametrize("n_dirs", DIRECTION_COUNTS)
def test_pruned_delta_equals_the_brute_force_minimum(default_params, n_dirs, n_max, e):
    model, P, pruned, brute = _case(default_params, n_dirs, n_max, e)
    assert pruned == brute
    kept, every = _kept_counts(model, P)
    assert sum(kept) < sum(every)  # the equality holds with trials skipped


@pytest.mark.parametrize("e", COUPLINGS)
@pytest.mark.parametrize("n_max", [1, 2])
@pytest.mark.parametrize("n_dirs", DIRECTION_COUNTS)
def test_the_certificate_equals_the_cholesky_oracle_on_every_query(
    default_params, n_dirs, n_max, e
):
    """Every block that the search of a case asked the certificate about,
    from the Delta trials and from the ground path, gets the verdict of
    the Gram product and Cholesky of :mod:`oracles`."""
    _pruned_case(default_params, n_dirs, n_max, e)
    for schur, cholesky in _VERDICTS[n_dirs, n_max, e]:
        assert schur.tolist() == cholesky.tolist()


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
                pruned = delta_search(P, model, cache=cache)[0]
                differ += sum(a != b for a, b in zip(pruned, brute))
    assert differ > 0


@pytest.mark.parametrize("e", COUPLINGS)
@pytest.mark.parametrize("n_max", [1, 2])
@pytest.mark.parametrize("n_dirs", DIRECTION_COUNTS)
def test_certified_trials_lie_above_their_level(default_params, n_dirs, n_max, e):
    """Every trial that the certificate rules out has a solved E(P - k)
    above its level tau, and so a value above the minimum; the energies are
    those that the brute force above solved for every orbit trial."""
    model, P, pruned, trials = _pruned_case(default_params, n_dirs, n_max, e)
    cache = _CACHES[n_dirs, n_max, e]
    m_ph = model.params.m_ph
    for p, delta, t in zip(P, pruned, trials):
        (e_p,) = ground_batch([p], model, cache=cache)
        ceiling = e_p + float(dispersion(np.zeros(3), m_ph)) - e_p + PRUNE_MARGIN
        for k in t.certified:
            (e_q,) = ground_batch([p - k], model, cache=cache)
            omega = float(dispersion(k, m_ph))
            assert e_q > e_p + ceiling - omega
            assert e_q + omega - e_p > delta  # the minimizer is never ruled out


def test_dropping_beta_breaks_the_equality(default_params, monkeypatch):
    """With beta = 0 the minorant claims gamma sqrt(y) >= 2 gamma c, which
    is false below y = 4c^2: it rules out trials that hold the minimum, and
    Delta then differs from the brute force in some case."""
    monkeypatch.setattr(
        certificate, "_root_minorant", lambda gamma, c: (2.0 * gamma * c, 0.0 * c)
    )
    differ = 0
    for n_dirs in DIRECTION_COUNTS:
        for n_max in (1, 2):
            for e in COUPLINGS:
                cache = _CACHES.setdefault((n_dirs, n_max, e), EnergyCache())
                model = _model(default_params, n_dirs, n_max, e)
                P = _momenta(n_dirs, n_max)
                brute = [_brute_delta(p, model, cache) for p in P]
                pruned = delta_search(P, model, cache=cache)[0]
                differ += sum(a != b for a, b in zip(pruned, brute))
    assert differ > 0


def _random_blocks(rng, g, n, form, dtype, strength):
    """(s, d): g blocks whose Y = s^dagger s + M^2 has its vacuum at c^2 =
    |q|^2 + M^2 with |q| = 0.7, H_f-like d >= 0 with d = 0 on the vacuum,
    and a random coupling of the given strength.  ``form`` "mirror" draws a
    square S; "rotation" a Hermitian s, whose s^dagger s is s^2."""
    x = np.concatenate([[0.7], rng.uniform(-2.0, 2.0, n - 1)])
    noise = rng.normal(size=(g, n, n))
    if dtype is complex:
        noise = noise + 1j * rng.normal(size=(g, n, n))
    if form == "rotation":
        noise = 0.5 * (noise + np.conj(noise.swapaxes(-1, -2)))
    s = np.diag(x) + strength / math.sqrt(n) * noise
    d = np.concatenate([[0.0], rng.uniform(0.5, 3.0, n - 1)])
    return s, np.broadcast_to(d, (g, n))


def _gram(s):
    return np.conj(s.swapaxes(-1, -2)) @ s


def _certify(s, d, tau, gamma, M, c2):
    """The two tiers of :func:`pffiber.certificate.certify_stack_block` on
    the dense (g, n, n) s: A > 0, then Z > 0 by :func:`certify_block`,
    which takes the momenta where z > 0 on every row at once."""
    positive, z = _z_diagonal(d, tau, gamma, M, c2)
    return positive & certify_block(dense_gram(s), z)


def _lowest(s, d, gamma, M):
    """The lowest eigenvalue of gamma sqrt(s^dagger s + M^2) + diag(d)."""
    y, u = np.linalg.eigh(_gram(s))
    root = (u * np.sqrt(y + M * M)[..., None, :]) @ np.conj(u.swapaxes(-1, -2))
    h = gamma * root + d[..., None] * np.eye(d.shape[-1])
    return np.linalg.eigvalsh(h)[..., 0]


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("form", ["mirror", "rotation"])
def test_the_certificate_is_sound_and_tight(form, dtype):
    """Never certifies a level at or above the lowest eigenvalue, on weak
    and on strong couplings and at levels far and near; on the weak draws,
    whose ground state sits near the vacuum as at e <= 0.3, certifies every
    level 1e-4 below it."""
    rng = np.random.default_rng(2026)
    gamma, M = 0.5, 1.0
    for strength in (0.02, 0.3, 3.0):
        s, d = _random_blocks(rng, 16, 40, form, dtype, strength)
        lam = _lowest(s, d, gamma, M)
        c2 = np.full(len(s), 0.7**2 + M * M)
        for shift in (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0):
            assert not _certify(s, d, lam + shift, gamma, M, c2).any()
        if strength == 0.02:
            assert _certify(s, d, lam - 1e-4, gamma, M, c2).all()
    # far below the spectrum the certificate holds at any coupling
    assert _certify(s, d, lam - 10.0, gamma, M, c2).all()


@pytest.mark.parametrize("dtype", [float, complex])
def test_the_schur_complement_equals_the_cholesky_for_every_size_of_S(dtype):
    """Random Hermitian s with n = 24, z > 0 off a random set S of each
    size from 1 to n, and z < 0 on S at depths around the threshold:
    certify_block proves Z = s^dagger s + diag(z) > 0 exactly where the
    Cholesky of the dense Z runs through, wherever the lowest eigenvalue
    of Z is at least 1e-6 of its norm from 0, and never where it is <= 0.
    Both verdicts occur at every size."""
    rng = np.random.default_rng(26)
    g, n = 12, 24
    for size in range(1, n + 1):
        s = rng.normal(size=(g, n, n))
        if dtype is complex:
            s = s + 1j * rng.normal(size=(g, n, n))
        # eigenvalues of s in about [0.4, 1.6], so that a Z with z < 0 on
        # every state can still be positive definite
        s = 0.15 * (s + np.conj(s.swapaxes(-1, -2))) / math.sqrt(n) + np.eye(n)
        z = rng.uniform(0.2, 2.0, size=(g, n))
        for a, depth in enumerate(np.geomspace(0.01, 3.0, g)):
            states = rng.choice(n, size, replace=False)
            z[a, states] = -depth * rng.uniform(0.5, 1.0, size)
        Z = _gram(s) + z[:, :, None] * np.eye(n)
        lowest = np.linalg.eigvalsh(Z)[:, 0]
        clear = np.abs(lowest) >= 1e-6 * np.abs(np.linalg.eigvalsh(Z)).max(axis=1)
        got = certify_block(dense_gram(s), z)
        assert got[clear].tolist() == cholesky_succeeds(Z)[clear].tolist()
        assert not got[lowest <= 0.0].any()
        assert set(got[clear].tolist()) == {True, False}


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("form", ["mirror", "rotation"])
def test_one_cg_step_proves_no_level_above_the_minimum(monkeypatch, form, dtype):
    """Negative control: with CG cut to one step the residual term is
    large, and a level at or above the lowest eigenvalue is still never
    proven; far below it, one step proves the weak draws."""
    monkeypatch.setattr(certificate, "CG_STEPS", 1)
    rng = np.random.default_rng(7)
    gamma, M = 0.5, 1.0
    for strength in (0.02, 0.3, 3.0):
        s, d = _random_blocks(rng, 16, 40, form, dtype, strength)
        lam = _lowest(s, d, gamma, M)
        c2 = np.full(len(s), 0.7**2 + M * M)
        for shift in (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0):
            assert not _certify(s, d, lam + shift, gamma, M, c2).any()
        if strength == 0.02:
            assert _certify(s, d, lam - 0.1, gamma, M, c2).all()


@pytest.mark.parametrize("entry", ["nan off the diagonal", "inf on the diagonal"])
def test_the_certificate_refuses_a_gram_matrix_that_is_not_finite(entry):
    """s = diag(0, 1) and z = (1, -0.5): Z = diag(1, 0.5) is proven by the
    Schur complement on S = {1}.  A NaN off the diagonal of s, or an inf
    on it, makes s^dagger s not finite, and Z is not proven; in a stack,
    only that matrix is refused."""
    good = np.diag([0.0, 1.0])[None]
    z = np.array([[1.0, -0.5]])
    assert certify_block(dense_gram(good), z).all()
    bad = good.copy()
    if entry.startswith("nan"):
        bad[0, 0, 1] = bad[0, 1, 0] = np.nan
    else:
        bad[0, 0, 0] = np.inf
    assert not certify_block(dense_gram(bad), z).any()
    stack = np.concatenate([good, bad])
    assert certify_block(dense_gram(stack), np.repeat(z, 2, axis=0)).tolist() == [True, False]


def _tiers(params_or_model, P, trial_k_set=None):
    """Per momentum: (trials kept, trials past the closed-form tier, orbit
    trials)."""
    model = _as_model(params_or_model)
    energies = ground_batch(P, model)
    trials = delta_trials(P, model, energies, trial_k_set)
    every = [
        orbit_representatives(
            default_trial_set(model) if trial_k_set is None else trial_k_set,
            stabilizer(model.rotations, p),
        )
        for p in P
    ]
    return (
        [len(t.kept) for t in trials],
        [len(t.kept) + len(t.certified) for t in trials],
        [len(a) for a in every],
    )


def _kept_counts(params_or_model, P, trial_k_set=None):
    kept, _, every = _tiers(params_or_model, P, trial_k_set)
    return kept, every


def _equals_brute_force(params, P):
    model = build_model(params)
    cache = EnergyCache()
    pruned = delta_search(P, model, cache=cache)[0]
    return pruned == [_brute_delta(p, model, cache) for p in P]


P_X = np.array([[0.7, 0.0, 0.0]])


def test_the_default_grid_prunes_along_x(default_params):
    """The positive control of the cases below: of 7 orbit trials, the
    corollary bound keeps 3 (k = 0, the inner trial toward +x and the inner
    transverse trial), and the certificate rules out the transverse one,
    whose E(P - k) lies 0.053 above its level: 2 kept."""
    assert _tiers(default_params, P_X) == ([2], [3], [7])


def test_no_pruning_without_k_zero(default_params):
    trials = default_trial_set(build_model(default_params))[1:]
    kept, every = _kept_counts(default_params, P_X, trials)
    assert kept == every == [6]


def test_no_pruning_at_gamma_one(default_params):
    """At e = 0, 1 - gamma - eC' = 0 at gamma = 1: only gamma < 1 fails, and
    the closed-form tier keeps every trial.  The certificate, which needs
    no gamma < 1, still rules out all but the minimum's, and Delta stays
    the brute-force minimum."""
    below = default_params.replace(e=0.0, gamma=0.99)
    assert _tiers(below, P_X)[1] != [7]
    params = default_params.replace(e=0.0, gamma=1.0)
    assert _tiers(params, P_X) == ([2], [7], [7])
    assert _equals_brute_force(params, P_X)


def test_no_pruning_where_the_bound_lacks_its_h_f_term(default_params):
    """1 - gamma - eC' < 0: the H_f term of L_- is negative, and
    gamma sqrt(q^2 + M^2) - eC' no lower bound, so the closed-form tier
    keeps every trial.  The certificate still applies, and Delta stays the
    brute-force minimum."""
    params = default_params.replace(e=0.6)
    consts = bounds.bound_constants(build_model(params))
    assert 1.0 - params.gamma - consts.e_c_prime < 0.0
    assert _tiers(params, P_X) == ([2], [7], [7])
    assert _equals_brute_force(params, P_X)


def test_e_c_prime_is_the_direction_free_e_c(default_model):
    """eC' takes the full n_half where eC takes its u-component: at e = 0.1
    on the default grid 0.1062 against 0.1031."""
    consts = bounds.bound_constants(default_model)
    p, n = default_model.params, default_model.norms
    assert np.all(n.n_half_comp <= n.n_half)
    assert consts.e_c_prime == p.gamma * (n.n_half + 3.0 * math.pi / p.M * n.n_curl)
    assert round(consts.e_c_prime, 4) == 0.1062 and round(consts.e_c1, 4) == 0.1031


def _direction_free_comparison(result):
    (bound,) = [c for c in result.comparisons if c["label"].startswith("direction-free")]
    return bound


def test_check_8_reads_the_bound_from_the_cache(monkeypatch):
    """The margins of check 8 cover each P and each kept P - k, with no new
    solve and no new certificate, and the check fails once eC' no longer
    bounds E."""
    cfg = default_config()
    ctx = verify.VerifyContext(cfg)
    model = build_model(ctx.params_at(0.1))
    consts = bounds.bound_constants(model)
    momenta = ctx.momenta()
    _, kept = delta_search(momenta, model, cache=ctx.cache)
    misses = ctx.cache.misses
    certified = []
    monkeypatch.setattr(certificate, "certify_block", lambda *a: certified.append(a))
    margins = verify._solved_bound_margins(ctx, model, consts, kept)
    assert ctx.cache.misses == misses and not certified
    monkeypatch.undo()
    assert len(margins) == len(momenta) + sum(len(t.kept) - 1 for t in kept)
    assert min(margins) > 0.1
    # 3 couplings x 11 sweep momenta, and 8 + 8 + 8 kept trial momenta: of
    # the 8 + 19 + 25 that the corollary bound keeps at e = 0, 0.05 and 0.1,
    # the certificate rules out 0 + 11 + 17
    result = verify.check_delta_bounds(verify.VerifyContext(cfg))
    bound = _direction_free_comparison(result)
    assert result.passed and "at the 57 momenta solved for Delta" in bound["label"]
    assert result.detail.endswith("; 28 trials ruled out by the operator certificate")

    real = bounds.bound_constants
    monkeypatch.setattr(
        bounds, "bound_constants",
        lambda m: dataclasses.replace(real(m), e_c_prime=real(m).e_c_prime - 0.2),
    )
    result = verify.check_delta_bounds(verify.VerifyContext(cfg))
    bound = _direction_free_comparison(result)
    assert not result.passed and bound["value"] > bound["tol"]
    assert "direction-free bound" in result.detail
