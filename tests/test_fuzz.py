"""Seeded config fuzzing of the CLI, plus the config errors that must exit 2.

Each drawn config is a small grid (one radial shell, Fock dimension at most
160) with two momenta.  ``sweep`` and ``bounds`` run in-process and must
exit 0 and satisfy the model's exact statements: an even ground
multiplicity at e > 0, the free ground energy gamma sqrt(P^2 + M^2) at
e = 0, and Delta(P) <= m_ph.
"""

import json
import math

import numpy as np
import pytest

from pffiber.cli import main
from pffiber.config import ConfigError, load_config
from pffiber.fock import truncated_dim

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


@pytest.mark.parametrize("data", _draw_configs(), ids=_config_id)
def test_fuzzed_config_runs_and_keeps_the_exact_statements(tmp_path, capsys, data):
    p = data["params"]
    code, out = _run(tmp_path, "sweep", data)
    assert code == 0
    rows = _table(out / "sweep.csv")
    assert len(rows) == 2
    assert json.loads((out / "sweep_summary.json").read_text())["failures"] == []
    for P, row in zip(data["P_list"], rows):
        if p["e"] > 0:
            assert row["mult"] % 2 == 0
        else:
            free = p["gamma"] * math.sqrt(float(np.dot(P, P)) + 1.0)  # M = 1
            assert abs(row["E"] - free) <= 1e-10
        assert row["delta"] <= p["m_ph"] + 1e-12
    code, out = _run(tmp_path, "bounds", data)
    assert code == 0
    assert len(_table(out / "bounds.csv")) == 2
    assert "Traceback" not in capsys.readouterr().err


INVALID_CONFIGS = {
    "unsupported n_dirs": {"params": {"n_dirs": 5}},
    "params basis too large": {"params": {"N_max": 9}},
    "small_params basis too large": {"small_params": {"n_dirs": 12, "N_max": 9}},
    "ladder rung too large": {"convergence_ladder": [[0, 2], [9, 6]]},
    "momentum without 3 components": {"P_list": [[0.1, 0.2]]},
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
