import dataclasses
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pffiber.bounds import bound_constants, count_below, sandwich_margins
from pffiber.fock import hermiticity_defect
from pffiber.hamiltonian import build_H, build_model
from pffiber.kramers import check_theta_commutes
from pffiber.spectral import (
    CACHE_FORMAT,
    EnergyCache,
    SpectrumReport,
    cluster_degeneracy,
    convergence_study,
    default_trial_set,
    delta_gap,
    free_delta_gap,
    ground_data,
    low_spectrum,
    solve_fiber,
)

from oracles import build_H_blocks, theta_pairing_residuals


def test_low_spectrum_small_diagonal():
    vals, vecs = low_spectrum(np.diag([3.0, 1.0, 2.0]), 2)
    assert_allclose(vals, [1.0, 2.0])
    gram = vecs.conj().T @ vecs
    assert_allclose(gram, np.eye(2), atol=1e-10)


def test_low_spectrum_contract_violations():
    with pytest.raises(ValueError):
        low_spectrum(np.eye(3), 0)
    with pytest.raises(ValueError):
        low_spectrum(np.eye(3), 4)


def test_low_spectrum_matches_free_oracle(default_params):
    model = build_model(default_params.replace(e=0.0))
    P = np.array([0.9, 0.0, 0.0])
    h = build_H(P, model)
    vals, _ = low_spectrum(h, 6)
    rel = P[None, :] - model.pf
    fock = (
        model.params.gamma * np.sqrt(np.sum(rel * rel, axis=1) + model.params.M**2)
        + model.hf
    )
    closed = np.sort(np.concatenate([fock, fock]))[:6]
    assert np.max(np.abs(vals - closed)) <= 1e-10


def test_cluster_examples():
    assert cluster_degeneracy([1.0, 1.0 + 1e-12, 2.0], 1e-9) == [
        (pytest.approx(1.0), 2),
        (2.0, 1),
    ]
    assert cluster_degeneracy([1.0, 2.0, 3.5], 1e-9) == [(1.0, 1), (2.0, 1), (3.5, 1)]
    with pytest.raises(ValueError):
        cluster_degeneracy([2.0, 1.0], 1e-9)


def _cluster_loop(vals, scale_tol):
    """The greedy rule one value at a time: a gap above
    scale_tol * max(1, |value|) closes the cluster."""
    clusters, start = [], 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > scale_tol * max(
            1.0, abs(vals[i])
        ):
            chunk = vals[start:i]
            clusters.append((float(chunk.mean()), len(chunk)))
            start = i
    return clusters


def test_cluster_matches_the_greedy_loop():
    """Random spectra with planted clusters whose spreads straddle the
    tolerance, at scales below and above 1."""
    rng = np.random.default_rng(2026)
    tol = 1e-8
    for _ in range(3000):
        scale = 10.0 ** rng.uniform(-3, 3)
        centers = np.sort(rng.uniform(-scale, scale, size=rng.integers(1, 8)))
        spread = tol * max(1.0, scale) * rng.uniform(0.0, 2.0, size=centers.size)
        vals = np.sort(np.concatenate([
            c + d * rng.uniform(-1.0, 1.0, size=rng.integers(1, 5))
            for c, d in zip(centers, spread)
        ]))
        got = cluster_degeneracy(vals, tol)
        want = _cluster_loop(vals, tol)
        assert [m for _, m in got] == [m for _, m in want]
        assert all(isinstance(m, int) for _, m in got)
        for (a, _), (b, _) in zip(got, want):
            assert abs(a - b) <= 1e-15 * max(1.0, abs(b))
    assert cluster_degeneracy([], tol) == []


def test_free_spectrum_all_even_multiplicities(default_params):
    model = build_model(default_params.replace(e=0.0))
    vals = np.linalg.eigvalsh(build_H(np.array([0.3, 0, 0]), model))
    assert all(c[1] % 2 == 0 for c in cluster_degeneracy(vals, 1e-9))


def test_ground_data_free_oracle(default_params):
    p = default_params.replace(e=0.0)
    model = build_model(p)
    e0, e1, mult = ground_data(np.zeros(3), model)
    assert e0 == pytest.approx(p.gamma * p.M, abs=1e-12)
    assert mult == 2
    # cheapest one-photon level, enumerated independently
    expected_e1 = min(
        p.gamma * math.sqrt(k @ k + p.M**2) + om
        for k, om in zip(model.table.k, model.table.omega)
    )
    assert e1 == pytest.approx(expected_e1, abs=1e-10)


def test_ground_multiplicity_exactly_two_with_coupling(default_model):
    for px in (0.0, 1.0, 2.0):
        _, _, mult = ground_data(np.array([px, 0.0, 0.0]), default_model)
        assert mult == 2


def test_parity_of_ground_energy(default_model):
    P = np.array([1.2, 0.0, 0.0])
    ep, _, _ = ground_data(P, default_model)
    em, _, _ = ground_data(-P, default_model)
    assert abs(ep - em) <= 1e-10


def test_delta_ceiling_and_free_match(default_params, default_model):
    P = np.array([1.4, 0.0, 0.0])
    assert delta_gap(P, default_model) <= default_params.m_ph + 1e-12
    p0 = default_params.replace(e=0.0)
    model0 = build_model(p0)
    trial = default_trial_set(model0)
    assert delta_gap(P, model0) == pytest.approx(
        free_delta_gap(P, p0, trial), abs=1e-10
    )


def test_delta_monotone_under_trial_inclusion(default_model):
    P = np.array([0.8, 0.0, 0.0])
    full = default_trial_set(default_model)
    sub = full[:3]
    assert delta_gap(P, default_model, trial_k_set=full) <= delta_gap(
        P, default_model, trial_k_set=sub
    ) + 1e-14


def test_delta_positive_under_gap_hypotheses(default_model):
    for px in (0.0, 1.0, 2.0):
        assert delta_gap(np.array([px, 0.0, 0.0]), default_model) > 0.0


def test_cache_hit_equals_recompute(default_model):
    cache = EnergyCache()
    P = np.array([0.6, 0.0, 0.0])
    first = ground_data(P, default_model, cache=cache)
    again = ground_data(P, default_model, cache=cache)
    fresh = ground_data(P, default_model)
    assert first == again == fresh
    assert cache.hits == 1 and cache.misses == 1


def test_cache_roundtrip(tmp_path, default_model):
    path = tmp_path / "cache.json"
    cache = EnergyCache(path=str(path))
    P = np.array([0.5, 0.0, 0.0])
    value = ground_data(P, default_model, cache=cache)
    cache.save()
    reloaded = EnergyCache(path=str(path))
    assert reloaded.get(EnergyCache.key(default_model.params, P)) == value


def test_cache_key_includes_cluster_tol(default_model):
    P = np.array([0.3, 0.0, 0.0])
    cache = EnergyCache()
    tight = ground_data(P, default_model, cluster_tol=1e-8, cache=cache)
    assert tight[2] == 2 and tight[1] is not None
    loose = ground_data(P, default_model, cluster_tol=0.6, cache=cache)
    fresh = ground_data(P, default_model, cluster_tol=0.6)
    assert loose == fresh
    assert loose[1] is None and loose[2] == 50


def test_cache_save_is_atomic(tmp_path, default_model):
    path = tmp_path / "cache.json"
    cache = EnergyCache(path=str(path))
    ground_data(np.array([0.5, 0.0, 0.0]), default_model, cache=cache)
    cache.save()
    cache.save()
    assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]
    assert json.loads(path.read_text())["format"] == CACHE_FORMAT


def test_cache_file_does_not_depend_on_insertion_order(tmp_path, default_model):
    """The order in which a run fills the cache depends on which momenta and
    trials it solves first; the saved file must not show it."""
    params = default_model.params
    items = [
        (EnergyCache.key(params, [x, -0.5 * x, 0.0], tol), (1.0 + x, 2.0 + x, 2))
        for x in (0.3, -0.1, 1.2, 0.0, 0.7)
        for tol in (1e-8, 1e-6)
    ]
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, order in zip(paths, (items, items[::-1])):
        cache = EnergyCache(path=str(path))
        for key, value in order:
            cache.put(key, value)
        cache.save()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert len(json.loads(paths[0].read_text())["entries"]) == len(items)


@pytest.mark.parametrize(
    "content",
    [
        "{not json",
        "[1, 2]",
        json.dumps({"format": 2, "entries": {}}),
        json.dumps({"format": 5, "entries": {}}),
        json.dumps({"format": 6, "entries": {}}),
        json.dumps({"format": 7, "entries": {}}),
        json.dumps({"format": CACHE_FORMAT - 1, "entries": {}}),
    ],
)
def test_cache_unusable_file_warns(tmp_path, capsys, default_model, content):
    path = tmp_path / "cache.json"
    path.write_text(content)
    cache = EnergyCache(path=str(path))
    err = capsys.readouterr().err
    assert err.startswith("warning: ignoring cache") and err.count("\n") == 1
    ground_data(np.zeros(3), default_model, cache=cache)
    assert cache.hits == 0 and cache.misses == 1


def test_cache_of_format_2_is_recomputed(tmp_path, capsys, default_model):
    """Format 2 held dense values; blocked solves differ in the last bits."""
    P = np.array([0.5, 0.0, 0.0])
    key = EnergyCache.key(default_model.params, P)
    path = tmp_path / "cache.json"
    path.write_text(json.dumps(
        {"format": 2, "entries": {json.dumps(list(key)): [9.0, 10.0, 2]}}
    ))
    cache = EnergyCache(path=str(path))
    assert "warning: ignoring cache" in capsys.readouterr().err
    assert ground_data(P, default_model, cache=cache) == ground_data(P, default_model)
    assert cache.hits == 0 and cache.misses == 1


@pytest.mark.parametrize("P", [[0.9, 0.0, 0.0], [0.4, -0.3, 0.2]])
def test_fiber_solve_matches_separate_computations(default_params, default_model, P):
    P = np.array(P)
    consts = bound_constants(default_model)
    cache = EnergyCache()
    solve = solve_fiber(P, default_model, cache=cache)
    h = build_H(P, default_model)
    e0, e1, mult = ground_data(P, default_model)
    assert abs(solve.E - e0) <= 1e-12 and abs(solve.E1 - e1) <= 1e-12
    assert solve.mult == mult
    assert cache.get(EnergyCache.key(default_model.params, P)) == (
        solve.E, solve.E1, solve.mult
    )
    sigma = consts.sigma_minus(P)
    assert count_below(solve.eigenvalues, sigma) == count_below(h, sigma)
    assert_allclose(solve.sandwich, sandwich_margins(P, default_model, consts),
                    rtol=0, atol=1e-12)
    assert abs(solve.h_norm - np.linalg.norm(h, 2)) <= 1e-12
    vals, vecs = low_spectrum(h, 4)
    assert_allclose(solve.eigenvalues[:4], vals, rtol=0, atol=1e-12)
    eig_res = np.max(np.linalg.norm(h @ vecs - vecs * vals[None, :], axis=0))
    assert abs(solve.residuals["eigenpair"] - eig_res) <= 1e-12
    pairing = theta_pairing_residuals(h, vals[:1], vecs[:, :1])[0]
    assert_allclose(solve.ground_pairing, pairing, rtol=0, atol=1e-12)
    if len(build_H_blocks(P, default_model)) == 1:  # the generic momentum
        assert np.array_equal(solve.eigenvalues, np.linalg.eigh(h)[0])
        assert solve.residuals["hermiticity"] == hermiticity_defect(h)
        assert solve.residuals["theta_commutation"] == check_theta_commutes(h)
    else:  # C4 along x: the residuals are taken block by block
        assert solve.residuals["hermiticity"] <= 1e-12 * solve.h_norm
        assert hermiticity_defect(h) <= 1e-12 * solve.h_norm
        assert solve.residuals["theta_commutation"] <= 1e-12
        assert check_theta_commutes(h) <= 1e-12
    # no eigenvector survives the solve
    assert all(np.ndim(v) < 2 for v in vars(solve).values())
    # no lower comparison operator at gamma = 1, so no sandwich margins
    assert solve_fiber(P, default_params.replace(gamma=1.0)).sandwich is None


def test_solve_fiber_record_is_stored(default_model):
    P = np.array([0.7, 0.0, 0.0])
    cache = EnergyCache()
    solve = solve_fiber(P, default_model, cache=cache)
    assert solve_fiber(P, default_model, cache=cache) is solve
    assert solve_fiber(P.copy(), default_model, 1e-8, cache) is solve
    loose = solve_fiber(P, default_model, 1e-6, cache)
    assert loose is not solve
    assert solve_fiber(P, default_model, 1e-6, cache) is loose
    assert_allclose(loose.eigenvalues, solve.eigenvalues, rtol=0, atol=0)


def test_cache_counts_lookups_not_stores(default_model):
    P = np.array([0.9, 0.0, 0.0])
    cache = EnergyCache()
    solve = solve_fiber(P, default_model, cache=cache)
    assert (cache.hits, cache.misses) == (0, 1)
    assert ground_data(P, default_model, cache=cache) == (
        solve.E, solve.E1, solve.mult
    )
    assert solve_fiber(P, default_model, cache=cache) is solve
    assert cache.misses == 1 and cache.hits == 2


def test_fingerprint_distinguishes_params(default_params):
    a = default_params.fingerprint
    b = default_params.replace(e=default_params.e + 1e-12).fingerprint
    assert a != b


def test_fingerprint_is_built_once_per_params(default_params):
    params = default_params.replace(e=0.123456789012345678, N_max=2)
    assert "fingerprint" not in vars(params)
    key = params.fingerprint
    assert vars(params)["fingerprint"] is key
    assert params.fingerprint is key
    assert key == ";".join(
        f"{k}={v:.17g}" if isinstance(v, float) else f"{k}={v}"
        for k, v in sorted(dataclasses.asdict(params).items())
    )
    assert params.replace(e=params.e) == params
    assert "fingerprint" not in vars(params.replace(e=0.5))


def test_convergence_free_theory_exact(small_params):
    p = small_params.replace(e=0.0)
    rows = convergence_study(np.array([0.7, 0, 0]), p, [(0, 1), (1, 1), (2, 1)])
    energies = [r["E"] for r in rows]
    # vacuum is exact at e = 0: rungs agree to eigensolver rounding
    assert max(energies) - min(energies) <= 1e-13
    assert rows[0]["E"] == pytest.approx(p.gamma * math.sqrt(0.49 + p.M**2))


def test_convergence_nmax0_is_vacuum_expectation(small_params):
    rows = convergence_study(np.zeros(3), small_params, [(0, 1)])
    model = build_model(small_params.replace(N_max=0))
    h = build_H(np.zeros(3), model)
    assert rows[0]["E"] == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-12)


def test_convergence_differences_shrink(small_params):
    rows = convergence_study(
        np.array([0.5, 0, 0]), small_params, [(0, 1), (1, 1), (2, 1)]
    )
    diffs = [abs(r["diff_prev"]) for r in rows if r["diff_prev"] is not None]
    assert diffs[1] <= diffs[0]


def test_report_serialization():
    rep = SpectrumReport(
        P=(0.0, 0.0, 0.0), E=0.5, E1=1.0, ground_multiplicity=2,
        delta=0.4, sigma_minus=0.6, eigencount_below_sigma=2,
        residuals={"eigenpair": 1e-12},
    )
    data = json.loads(rep.to_json())
    assert data["E"] == 0.5
    assert data["residuals"]["eigenpair"] == 1e-12
