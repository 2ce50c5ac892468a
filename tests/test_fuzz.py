"""Seeded config fuzzing of the CLI, plus the config errors that must exit 2.

Each drawn config is a small grid (one radial shell, Fock dimension at most
160) with two momenta.  ``sweep``, ``bounds``, ``spectrum`` and
``convergence`` run in-process and must exit 0 and satisfy the model's
exact statements: an even ground multiplicity at e > 0, the free ground
energy gamma sqrt(P^2 + M^2) at e = 0 and at N_max = 0, and
Delta(P) <= m_ph.  Per grid, one drawn momentum in a mirror plane is solved
by mirror blocks and checked against the dense spectrum.  Two more drawn
configs, at Fock dimension at most 60, run ``verify``, which must exit 0 or
1 and report every check of the default run.  One more, at N_max 3 on 12
modes, runs ``sweep`` and ``convergence`` at momenta that take the real,
mirror and dense paths, checked against the dense spectrum.
"""

import functools
import json
import math

import numpy as np
import pytest
import scipy.linalg

from pffiber import config, hamiltonian, verify
from pffiber.cli import main
from pffiber.config import ConfigError, load_config
from pffiber.fock import truncated_dim
from pffiber.hamiltonian import _is_mirror, block_generator, build_H, build_model
from pffiber.spectral import _ground_triple, ground_data, solve_fiber

SEED = 20261018
N_CONFIGS = 12
MAX_FUZZ_DIM = 160
SUBCOMMANDS = ["spectrum", "sweep", "bounds", "convergence", "verify", "print-config"]


def _draw_configs():
    rng = np.random.default_rng(SEED)
    configs = []
    for i in range(N_CONFIGS):
        n_dirs = (2, 6, 8, 12)[i % 4]
        n_max = int(rng.choice(
            [n for n in (0, 1, 2) if truncated_dim(2 * n_dirs, n) <= MAX_FUZZ_DIM]
        ))
        axis = np.zeros(3)
        axis[rng.integers(3)] = rng.uniform(-1.5, 1.5)
        momenta = [rng.uniform(-1.0, 1.0, 3).tolist(), axis.tolist()]
        params = {
            "n_dirs": n_dirs,
            "n_shells": 1,
            "N_max": n_max,
            "e": (0.0, 0.3)[(i + i // 4) % 2],  # each grid at both couplings
            "gamma": float(rng.choice([0.5, 1.0])),
            "m_ph": float(rng.choice([0.0, 0.5])),
        }
        configs.append({"params": params, "P_list": momenta, "threads": 1})
    return configs


def _run(tmp_path, command, data):
    cfg = tmp_path / f"{command}.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / command
    return main([command, "--config", str(cfg), "--out", str(out)]), out


def _table(path):
    header, *rows = path.read_text().splitlines()
    return [dict(zip(header.split(","), map(float, r.split(",")))) for r in rows]


def _config_id(data):
    p = data["params"]
    return "dirs{n_dirs}-N{N_max}-e{e}-gamma{gamma}-mph{m_ph}".format(**p)


def _free_energy(p, P):
    return p["gamma"] * math.sqrt(float(np.dot(P, P)) + 1.0)  # M = 1


def _assert_exact_statements(data, rows):
    p = data["params"]
    assert len(rows) == len(data["P_list"])
    for P, row in zip(data["P_list"], rows):
        if p["e"] > 0:
            assert row["mult"] % 2 == 0
        else:
            assert abs(row["E"] - _free_energy(p, P)) <= 1e-10
        assert row["delta"] <= p["m_ph"] + 1e-12


@pytest.mark.parametrize("data", _draw_configs(), ids=_config_id)
def test_fuzzed_config_runs_and_keeps_the_exact_statements(tmp_path, capsys, data):
    code, out = _run(tmp_path, "sweep", data)
    assert code == 0
    _assert_exact_statements(data, _table(out / "sweep.csv"))
    assert json.loads((out / "sweep_summary.json").read_text())["failures"] == []
    code, out = _run(tmp_path, "bounds", data)
    assert code == 0
    assert len(_table(out / "bounds.csv")) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("data", _draw_configs(), ids=_config_id)
def test_fuzzed_config_spectrum_and_convergence(tmp_path, capsys, data):
    p = data["params"]
    code, out = _run(tmp_path, "spectrum", data)
    assert code == 0
    _assert_exact_statements(data, _table(out / "spectrum.csv"))
    # the ladder refines the drawn grid itself, from the vacuum truncation
    ladder = [[0, 1]] + ([[p["N_max"], 1]] if p["N_max"] > 0 else [])
    code, out = _run(tmp_path, "convergence",
                     {**data, "small_params": p, "convergence_ladder": ladder})
    assert code == 0
    rows = _table(out / "convergence.csv")
    assert [(r["N_max"], r["n_shells"]) for r in rows] == [tuple(r) for r in ladder]
    P = data["P_list"][1]  # convergence reads the middle momentum
    assert abs(rows[0]["E"] - _free_energy(p, P)) <= 1e-10
    if p["e"] == 0:
        assert all(abs(r["E"] - _free_energy(p, P)) <= 1e-10 for r in rows)
    assert "Traceback" not in capsys.readouterr().err


# the check names of `verify` on the default config
DEFAULT_CHECK_NAMES = [
    "1 free-theory oracle", "2a Clifford square identity",
    "2b Pauli expansion identity", "3 square-root cross-validation",
    "4 Kramers degeneracy", "5 operator sandwich", "6 min-max counting",
    "7 gap uniformity", "8 gap function bounds", "9 corollary envelope",
    "10a coupling estimate suite", "10b square-root operator monotonicity",
    "10c interaction norm trend", "11a parity symmetry E(P) = E(-P)",
    "11b negative controls flagged", "inv1 reality structure",
    "inv2 spinless chain bounds", "inv3 mode quadrature weights",
    "inv4 gap trial-set monotonicity", "inv5 momentum Lipschitz property",
    "soft1 radial deviation (rotation covariance probe)",
    "soft2 truncation convergence trend", "inv6 cache determinism",
]
MAX_VERIFY_DIM = 60
FAST_VERIFY = {"e_values": [0.0, 0.1], "n_random_draws": 2, "n_sqrt_draws": 2,
               "n_property_vectors": 10, "n_monotone_trials": 10}


def _draw_verify_configs(count=2):
    """Drawn configs with photons, at Fock dim <= MAX_VERIFY_DIM; the small
    model of the property and convergence checks stays the default one."""
    rng = np.random.default_rng(SEED + 1)
    configs = []
    for _ in range(count):
        n_dirs = int(rng.choice([2, 6, 8, 12]))
        n_max = int(rng.choice(
            [n for n in (1, 2) if truncated_dim(2 * n_dirs, n) <= MAX_VERIFY_DIM]
        ))
        params = {
            "n_dirs": n_dirs,
            "n_shells": 1,
            "N_max": n_max,
            "e": round(float(rng.uniform(0.0, 0.3)), 2),
            "gamma": float(rng.choice([0.5, 1.0])),
            "m_ph": float(rng.choice([0.0, 0.5])),
        }
        momenta = rng.uniform(-1.0, 1.0, (2, 3)).tolist()
        configs.append({"params": params, "P_list": momenta, "threads": 1,
                        "verify": FAST_VERIFY})
    return configs


@pytest.mark.parametrize("data", _draw_verify_configs(), ids=_config_id)
def test_fuzzed_config_verify_reports_every_check(tmp_path, capsys, data):
    code, out = _run(tmp_path, "verify", data)
    assert code in (0, 1)
    report = json.loads((out / "verify_report.json").read_text())
    assert report["exit_code"] == code
    assert [c["name"] for c in report["checks"]] == DEFAULT_CHECK_NAMES
    assert "Traceback" not in capsys.readouterr().err


def _mirror_plane_case(n_dirs):
    """The coupled config drawn for the grid and a momentum drawn in one of
    the coordinate planes, which are mirrors of every grid."""
    data = next(d for d in _draw_configs()
                if d["params"]["n_dirs"] == n_dirs and d["params"]["e"] > 0)
    rng = np.random.default_rng(SEED + n_dirs)
    P = rng.uniform(-1.0, 1.0, 3)
    P[rng.integers(3)] = 0.0
    return data["params"], P


@pytest.mark.parametrize("n_dirs", [2, 6, 8, 12])
def test_mirror_plane_momentum_matches_the_dense_oracle(n_dirs):
    params, P = _mirror_plane_case(n_dirs)
    model = build_model(config.config_from_dict({"params": params}).params)
    assert _is_mirror(block_generator(P, model)[0])
    h = build_H(P, model)
    e0, e1, mult = _ground_triple(scipy.linalg.eigvalsh(h), 1e-8)
    solve = solve_fiber(P, model)
    tol = 1e-12 * np.linalg.norm(h, 2)
    assert solve.mult == mult and mult % 2 == 0
    assert abs(ground_data(P, model) - e0) <= tol and abs(solve.E - e0) <= tol
    assert (solve.E1 is None and e1 is None) or abs(solve.E1 - e1) <= tol


def _n3_config():
    """One seeded config at N_max 3 on the 12-mode grid (Fock dim 455) with
    a momentum on an axis, one in a coordinate plane and a generic one: the
    real, mirror and dense paths of build_H_blocks."""
    rng = np.random.default_rng(SEED + 3)
    axis = np.zeros(3)
    plane, generic = rng.uniform(-1.0, 1.0, (2, 3))
    axis[rng.integers(3)] = rng.uniform(-1.5, 1.5)
    plane[rng.integers(3)] = 0.0
    params = {"n_dirs": 6, "n_shells": 1, "N_max": 3, "e": 0.3, "gamma": 0.5,
              "m_ph": float(rng.choice([0.0, 0.5]))}
    momenta = [axis.tolist(), plane.tolist(), generic.tolist()]
    return {"params": params, "P_list": momenta, "threads": 1}


def test_fuzzed_n_max_3_config_matches_the_dense_oracle(tmp_path, capsys):
    data = _n3_config()
    p = data["params"]
    model = build_model(config.config_from_dict(data).params)
    assert truncated_dim(2 * p["n_dirs"], p["N_max"]) == model.dim == 455
    kinds = []
    for P in data["P_list"]:
        sym = block_generator(np.array(P), model)
        kinds.append("dense" if sym is None
                     else "mirror" if _is_mirror(sym[0]) else "rotation")
    assert kinds == ["rotation", "mirror", "dense"]
    code, out = _run(tmp_path, "sweep", data)
    assert code == 0
    rows = _table(out / "sweep.csv")
    _assert_exact_statements(data, rows)
    for P, row in zip(data["P_list"], rows):
        h = build_H(P, model)
        e0, e1, mult = _ground_triple(scipy.linalg.eigvalsh(h), 1e-8)
        tol = 1e-12 * np.linalg.norm(h, 2)
        assert row["mult"] == mult and abs(row["E"] - e0) <= tol
        assert abs(row["E1"] - e1) <= tol
        # convergence reads the middle momentum of its list
        code, conv = _run(tmp_path, "convergence", {
            **data, "P_list": [P], "small_params": p, "convergence_ladder": [[3, 1]]})
        assert code == 0
        assert abs(_table(conv / "convergence.csv")[0]["E"] - e0) <= tol
    assert "Traceback" not in capsys.readouterr().err


INVALID_CONFIGS = {
    "unsupported n_dirs": {"params": {"n_dirs": 5}},
    "params basis too large": {"params": {"N_max": 9}},
    "small_params basis too large": {"small_params": {"n_dirs": 12, "N_max": 9}},
    "ladder rung too large": {"convergence_ladder": [[0, 2], [9, 6]]},
    "momentum without 3 components": {"P_list": [[0.1, 0.2]]},
    "M whose square underflows": {"params": {"M": 1e-300}},
    "momentum whose square overflows": {"P_list": [[1e200, 0, 0]]},
    "P_max whose square overflows": {"P_max": 1e308, "n_P": 2},
}


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("case", sorted(INVALID_CONFIGS))
def test_invalid_config_exits_2(tmp_path, capsys, case, command):
    code, out = _run(tmp_path, command, INVALID_CONFIGS[case])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not out.exists()
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / f"{command}.json"))


@pytest.mark.parametrize("command", ["convergence", "verify"])
def test_empty_momentum_list_exits_2_where_a_momentum_is_needed(
    tmp_path, capsys, command
):
    code, out = _run(tmp_path, command, {"P_list": []})
    assert code == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("command,table", [("sweep", "sweep.csv"),
                                           ("bounds", "bounds.csv")])
def test_empty_momentum_list_writes_empty_tables(tmp_path, command, table):
    code, out = _run(tmp_path, command, {"P_list": []})
    assert code == 0
    assert _table(out / table) == []


def test_verify_with_one_momentum_completes(tmp_path):
    # the cache-determinism report reads the second momentum when there is one
    fast = {"e_values": [0.0, 0.1], "n_random_draws": 3, "n_sqrt_draws": 2,
            "n_property_vectors": 25, "n_monotone_trials": 25}
    code, out = _run(tmp_path, "verify", {"n_P": 1, "verify": fast})
    assert code == 0
    assert json.loads((out / "verify_report.json").read_text())["exit_code"] == 0


def test_verify_without_photons_completes(tmp_path, capsys):
    # at N_max = 0 the interaction norm is 0 at every coupling
    data = {"params": {"N_max": 0}, "n_P": 2, "verify": FAST_VERIFY}
    code, out = _run(tmp_path, "verify", data)
    report = json.loads((out / "verify_report.json").read_text())
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["10c interaction norm trend"]["passed"]
    assert code == report["exit_code"] and "Traceback" not in capsys.readouterr().err


def _strict_report(out):
    """``verify_report.json`` read as strict JSON, which fails on a NaN or
    Infinity token: a value that is not finite is written as a string."""
    def reject(token):
        raise ValueError(f"{token} is not strict JSON")
    return json.loads((out / "verify_report.json").read_text(), parse_constant=reject)


# M^2 far below the spectrum, or check 3's tolerance below the quadrature's
# rounding: (config, tolerance of check 3)
STALLING_CONFIGS = {
    "M far below the spectrum": ({"params": {"M": 1e-6}}, verify.SQRT_CROSSVAL_TOL),
    "sqrt_crossval below rounding": ({}, 1e-30),
}


@pytest.mark.parametrize("case", sorted(STALLING_CONFIGS))
def test_a_stalled_quadrature_fails_check_3(tmp_path, capsys, monkeypatch, case):
    """A square-root quadrature that cannot reach its tolerance fails check 3
    and the run writes its report.  Both configs stall at any node budget;
    a budget of 64 nodes stalls sooner than the default one."""
    monkeypatch.setattr(
        verify, "op_sqrt_quad", functools.partial(hamiltonian.op_sqrt_quad, max_nodes=64)
    )
    stalling, tol = STALLING_CONFIGS[case]
    monkeypatch.setattr(verify, "SQRT_CROSSVAL_TOL", tol)
    data = {**stalling, "verify": {**FAST_VERIFY, "n_sqrt_draws": 1}}
    code, out = _run(tmp_path, "verify", data)
    assert code == 1 and "Traceback" not in capsys.readouterr().err
    report = _strict_report(out)
    (check_3,) = [c for c in report["checks"] if c["name"].startswith("3 ")]
    assert not check_3["passed"] and "quadrature stalled" in check_3["detail"]
    assert [c["value"] for c in check_3["comparisons"]] == ["inf"]


# models on which LAPACK fails to converge: in kinetic_root at e = 1e300, in
# the sandwich margins at Lambda = 1e100; the exit code of each subcommand
FAILING_MODELS = {
    "e 1e300": ({"e": 1e300}, {"convergence": 1, "verify": 1}),
    "Lambda 1e100": ({"Lambda": 1e100}, {"convergence": 0, "verify": 1}),
}


@pytest.mark.parametrize("command", SUBCOMMANDS[:-1])
@pytest.mark.parametrize("case", sorted(FAILING_MODELS))
def test_a_failed_eigensolve_ends_without_a_traceback(tmp_path, capsys, monkeypatch,
                                                      case, command):
    """spectrum, sweep and bounds record each failed momentum and exit 0;
    convergence and verify stop at a failure with one ``eigensolver
    error:`` line and exit 1.  verify still writes its report: the checks
    run before the failure, then a failed hard entry for the check that it
    stopped, and no Kramers certificate."""
    monkeypatch.setattr(  # check 3 stalls on both models; stall sooner
        verify, "op_sqrt_quad", functools.partial(hamiltonian.op_sqrt_quad, max_nodes=64)
    )
    params, codes = FAILING_MODELS[case]
    data = {"params": params, "small_params": params, "n_P": 2,
            "verify": {**FAST_VERIFY, "n_sqrt_draws": 1}}
    code, out = _run(tmp_path, command, data)
    err = capsys.readouterr().err
    assert code == codes.get(command, 0) and "Traceback" not in err
    failures = 2 if command in ("spectrum", "sweep", "bounds") else code
    assert err.count("eigensolver error:") == failures
    if command == "verify":
        report = _strict_report(out)
        *run, stopped = report["checks"]
        assert report["exit_code"] == 1 and report["kramers_certificates"] == []
        assert run and all(c["detail"].count("eigensolver error:") == 0 for c in run)
        assert stopped["hard"] and not stopped["passed"]
        (error,) = stopped["comparisons"]
        assert error["label"] == "eigensolver error" and error["value"] == "nan"
        assert stopped["detail"].startswith("eigensolver error: nan NOT <= 0.0e+00; ")
        assert "P = " in stopped["detail"]


def test_checks_2a_and_2b_fail_on_a_defect_that_is_not_finite(tmp_path, capsys,
                                                            monkeypatch):
    """At Lambda = 1e100 the Frobenius norms of checks 2a and 2b overflow,
    and their defects are inf / inf = NaN: both checks fail, where the
    running maximum used to drop the NaN and pass them with 0.000e+00.
    verify exits 1 without a traceback."""
    monkeypatch.setattr(  # check 3 stalls on this model; stall sooner
        verify, "op_sqrt_quad", functools.partial(hamiltonian.op_sqrt_quad, max_nodes=64)
    )
    data = {"params": {"Lambda": 1e100}, "small_params": {"Lambda": 1e100}}
    code, out = _run(tmp_path, "verify", data)
    assert code == 1 and "Traceback" not in capsys.readouterr().err
    checks = {c["name"].split()[0]: c for c in _strict_report(out)["checks"]}
    for name in ("2a", "2b"):
        assert not checks[name]["passed"] and "nan" in checks[name]["detail"]
        assert checks[name]["comparisons"][0]["value"] == "nan"


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_truncation_beyond_physical_memory_exits_2(tmp_path, capsys, monkeypatch,
                                                  command):
    # a host too small for the Fock-dim-45 rung only; the configs stay tiny,
    # so a broken check runs small models instead of exhausting memory
    monkeypatch.setattr(config, "physical_memory",
                        lambda: config.dense_storage_bytes(45) - 1)
    code, out = _run(tmp_path, command, {"convergence_ladder": [[0, 2], [2, 2]]})
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: convergence_ladder rung [2, 2]: "
                          "truncated Fock dimension 45")
    assert err.count("\n") == 1 and not out.exists()


def test_rung_under_the_basis_limit_can_exceed_memory(tmp_path, monkeypatch):
    # Fock dim 24,310 is under the basis limit, but one dense complex Fock
    # matrix alone takes 8.8 GiB
    monkeypatch.setattr(config, "physical_memory", lambda: 64 * 2**30)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"convergence_ladder": [[9, 2]]}))
    with pytest.raises(ConfigError, match=r"rung \[9, 2\].* 24310 needs about"):
        load_config(str(path))


def test_memory_limit_follows_the_host_figure(tmp_path, monkeypatch):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"params": {"N_max": 2}}))  # Fock dim 325
    need = config.dense_storage_bytes(325)
    assert need == config.DENSE_COPIES * 16 * 650**2
    monkeypatch.setattr(config, "physical_memory", lambda: need)
    assert load_config(str(path)).params.N_max == 2
    monkeypatch.setattr(config, "physical_memory", lambda: need - 1)
    with pytest.raises(ConfigError, match="params: truncated Fock dimension 325"):
        load_config(str(path))
