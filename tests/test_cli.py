import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from pffiber import bounds as bnd
from pffiber import cli, hamiltonian, spectral
from pffiber.cli import main
from pffiber.config import (
    MAX_MOMENTA,
    ConfigError,
    config_from_dict,
    default_config,
    dump_config,
    load_config,
)
from pffiber.spectral import EigensolverError

from oracles import build_H_blocks

FAST_VERIFY = {
    "verify": {
        "e_values": [0.0, 0.1],
        "n_random_draws": 3,
        "n_sqrt_draws": 2,
        "n_property_vectors": 25,
        "n_monotone_trials": 25,
    },
    "n_P": 5,
}


def write_cfg(tmp_path, extra=None, name="cfg.json"):
    data = dict(FAST_VERIFY)
    if extra:
        for key, val in extra.items():
            if isinstance(val, dict) and isinstance(data.get(key), dict):
                data[key] = {**data[key], **val}
            else:
                data[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_print_config_roundtrip(capsys):
    assert main(["print-config"]) == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["params"]["gamma"] == 0.5
    assert config_from_dict(dumped) == default_config()


def test_config_error_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"params": {"gamma": 0.5,}}')
    assert main(["spectrum", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.json:1:" in err
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    with pytest.raises(ConfigError):
        config_from_dict({"bogus_key": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"params": {"gamma": -2.0}})


def test_spectrum_empty_ladder(tmp_path):
    cfg = write_cfg(tmp_path, {"P_list": []})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines == ["P_x,P_y,P_z,E,E1,mult,delta,sigma_minus,count_below"]


def test_spectrum_free_ladder_closed_form(tmp_path):
    cfg = write_cfg(tmp_path, {"params": {"e": 0.0}})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "spectrum.csv").read_text().splitlines()[1:]
    assert len(rows) == 5
    for row in rows:
        cols = row.split(",")
        px, e0 = float(cols[0]), float(cols[3])
        assert abs(e0 - 0.5 * math.sqrt(px**2 + 1.0)) <= 1e-10
        assert cols[5] == "2"
    report = json.loads((out / "P_000.json").read_text())
    assert report["ground_multiplicity"] == 2
    assert report["residuals"]["theta_commutation"] <= 1e-12


def test_spectrum_rerun_with_cache_identical(tmp_path):
    """Each run fills its own energy cache from empty, and a rerun repeats
    every file byte for byte."""
    cfg = write_cfg(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    assert [(out1 / n).read_bytes() for n in names] == [
        (out2 / n).read_bytes() for n in names
    ]


# 0.21132565408032172 x is a Delta(P) trial wavevector of the grid, so the
# trials P - k of the 2nd and 4th momenta include the 1st and 3rd momenta: a
# trial E(1.5 x) reads either the eigvalsh E of ground_data or the eigh
# record of solve_fiber, whichever the run stored first
TRIAL_IS_LISTED = {
    "params": {"N_max": 2},
    "P_list": [[0.5, 0.0, 0.0], [0.71132565408032172, 0.0, 0.0],
               [1.5, 0.0, 0.0], [1.71132565408032172, 0.0, 0.0]],
}


def test_sweep_outputs_do_not_depend_on_threads(tmp_path):
    """Momenta run in ladder order in one thread whatever --threads says, so
    each trial reads the same record and the files repeat byte for byte."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TRIAL_IS_LISTED))
    files = []
    for i, flags in enumerate((["--threads", "1"], ["--threads", "2"], [])):
        out = tmp_path / f"o{i}"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), *flags]) == 0
        names = ("sweep.csv", "sweep_summary.json")
        files.append([(out / n).read_bytes() for n in names])
    assert files[0] == files[1] == files[2]


def test_sweep_outputs_and_prefix_stability(tmp_path):
    cfg_small = write_cfg(tmp_path, {"P_max": 0.8, "n_P": 3}, name="a.json")
    cfg_big = write_cfg(tmp_path, {"P_max": 1.6, "n_P": 5}, name="b.json")
    out_small, out_big = tmp_path / "small", tmp_path / "big"
    assert main(["sweep", "--config", cfg_small, "--out", str(out_small)]) == 0
    assert main(["sweep", "--config", cfg_big, "--out", str(out_big)]) == 0
    small_rows = (out_small / "sweep.csv").read_text().splitlines()
    big_rows = (out_big / "sweep.csv").read_text().splitlines()
    # doubling P_max leaves rows for shared P identical
    assert big_rows[:3] == small_rows[:3]
    summary = json.loads((out_big / "sweep_summary.json").read_text())
    assert summary["all_count_two"] is True
    assert summary["min_sandwich_lower"] >= -1e-9
    assert summary["min_direct_margin"] >= -1e-9


def test_sweep_csv_floats_lossless(tmp_path):
    cfg = write_cfg(tmp_path, {"n_P": 2})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    header, *rows = (out / "sweep.csv").read_text().splitlines()
    e_col = header.split(",").index("E")
    val = rows[0].split(",")[e_col]
    assert float(val) == float(f"{float(val):.17g}")  # 17-digit round trip
    assert len(val.replace(".", "").replace("-", "").lstrip("0")) >= 15


def test_bounds_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, {"n_P": 3})
    out = tmp_path / "out"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    consts = json.loads((out / "bound_constants.json").read_text())
    assert consts["e_c1"] == consts["e_c2"] > 0
    rows = (out / "bounds.csv").read_text().splitlines()
    assert len(rows) == 4


def test_written_constants_are_the_named_eight(tmp_path):
    """The constants in the output files are named in cli, so a new field of
    BoundConstants does not change them."""
    names = {"gamma", "M", "m_ph", "e_c1", "e_c_prime", "e_c2", "e_c3", "e2_c4"}
    assert set(cli.CONSTANT_NAMES) == names
    cfg = write_cfg(tmp_path, {"n_P": 1})
    out = tmp_path / "out"
    for command in ("sweep", "bounds"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert set(summary["constants"]) == names
    assert set(json.loads((out / "bound_constants.json").read_text())) == names


def test_convergence_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, {"convergence_ladder": [[0, 1], [1, 1], [2, 1]]})
    out = tmp_path / "out"
    assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "convergence.csv").read_text().splitlines()
    assert rows[0] == "N_max,n_shells,dim,E,diff_prev"
    assert len(rows) == 4


def test_verify_default_passes(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out), "--seed", "11"]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["exit_code"] == 0
    assert all(
        c["passed"] for c in report["checks"] if c["hard"]
    )
    assert any("PASS" in line for line in capsys.readouterr().out.splitlines())


def test_verify_luminal_guard_path(tmp_path):
    cfg = write_cfg(tmp_path, {"params": {"gamma": 1.0}})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert all(
        cert["conclusion"] == "hypotheses not met"
        for cert in report["kramers_certificates"]
    )


def test_verify_failed_check_exits_1(tmp_path):
    # e = 0.1 on the coupling ladder lies above e* = 0.05, so no Kramers
    # certificate can be issued there: check 4 fails
    cfg = write_cfg(tmp_path, {"verify": {"e_star": 0.05}})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    report = json.loads((out / "verify_report.json").read_text())
    assert report["exit_code"] == 1
    failed = [c["name"] for c in report["checks"] if c["hard"] and not c["passed"]]
    assert failed == ["4 Kramers degeneracy"]
    # the removed symmetry-breaking setting is now an unknown config key
    old = write_cfg(tmp_path, {"verify": {"break_symmetry": True}}, name="old.json")
    assert main(["verify", "--config", old, "--out", str(out)]) == 2


@pytest.mark.parametrize(
    "data",
    [
        {"n_P": -1},
        {"n_P": 2.5},
        {"P_max": "x"},
        {"P_max": "nan", "n_P": 2},
        {"threads": "x"},
        {"verify": {"e_values": 5}},
        {"verify": {"e_values": [0.0, -0.1]}},
        {"verify": {"e_star": float("inf")}},
        {"verify": {"n_random_draws": -1, "n_sqrt_draws": -1}},
        {"verify": {"n_property_vectors": 0}},
        {"verify": {"monotone_dim": 33}},
        {"verify": {"seed": "x"}},
        {"verify": 5},
        {"params": {"N_max": 1.5}},
        {"convergence_ladder": [[1.5, 2]]},
        {"P_list": 5},
        # removed settings
        {"cache_path": "c.json"},
        {"tasks": ["spectrum"]},
        {"tolerances": {"pairing": 1e-8}},
        {"tolerances": {"sandwich": "x"}},
        {"tolerances": {"parity": 0.0}},
        {"tolerances": {"cluster_rel": 1e-6}},
        {"tolerances": {"theta_comm": 1e9}},
    ],
)
def test_malformed_config_exits_2(tmp_path, capsys, data):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


def test_momentum_count_is_bounded(tmp_path, capsys, monkeypatch):
    # at the limit the config loads; no run is started here
    assert config_from_dict({"n_P": MAX_MOMENTA}).n_P == MAX_MOMENTA
    at_limit = [[0.1 * (i % 7), 0.0, 0.0] for i in range(MAX_MOMENTA)]
    assert len(config_from_dict({"P_list": at_limit}).momenta()) == MAX_MOMENTA

    def refuse(*args, **kwargs):
        raise AssertionError("an over-long momentum list must stop at the config")

    monkeypatch.setattr(cli, "run_spectrum", refuse)
    for data in ({"n_P": MAX_MOMENTA + 1}, {"n_P": 100_000_000},
                 {"P_list": at_limit + [[0.0, 0.0, 0.0]]}):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert str(MAX_MOMENTA) in err[0]


@pytest.mark.parametrize("flag", ["--seed", "--threads"])
def test_negative_count_flag_is_a_usage_error(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["verify", flag, "-1", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "expected an integer >= 0" in capsys.readouterr().err


def test_verify_solves_each_coupling_momentum_once(tmp_path, monkeypatch):
    built = []
    real = spectral._records

    def counted(P, model, *args):
        for p in P:
            built.append((model.params.e, tuple(p)))
        return real(P, model, *args)

    # every record of H(P) is built by _records, a stack of momenta at a
    # time (the ground path takes _ground_energies); count the momenta, not
    # the calls
    monkeypatch.setattr(spectral, "_records", counted)
    out = tmp_path / "out"
    assert main(["verify", "--out", str(out), "--threads", "1"]) == 0
    # 3 couplings x 11 momenta, each solved once for checks 1, 4, 5, 6 and
    # the certificates
    assert len(built) == 33
    assert len(set(built)) == 33


@pytest.mark.parametrize("command,table", [("sweep", "sweep.csv"),
                                           ("bounds", "bounds.csv")])
def test_luminal_gamma_writes_nan_sandwich(tmp_path, command, table):
    # gamma = 1 has no lower comparison operator, hence no sandwich margins
    cfg = write_cfg(tmp_path, {"params": {"gamma": 1.0}, "n_P": 2})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    header, *rows = (out / table).read_text().splitlines()
    cols = header.split(",")
    assert len(rows) == 2
    for row in rows:
        vals = dict(zip(cols, row.split(",")))
        assert vals["sandwich_lower"] == vals["sandwich_upper"] == "nan"
    if command == "sweep":
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["min_sandwich_lower"] is None
        assert summary["min_sandwich_upper"] is None
        assert summary["failures"] == []


def test_dump_load_roundtrip(tmp_path):
    cfg = default_config()
    path = tmp_path / "cfg.json"
    path.write_text(dump_config(cfg))
    assert load_config(str(path)) == cfg


def test_sweep_without_second_level(tmp_path):
    # N_max = 0 leaves one Fock state: no momentum has an E1
    cfg = write_cfg(tmp_path, {"params": {"N_max": 0}, "n_P": 2})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert len((out / "sweep.csv").read_text().splitlines()) == 3
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["min_E1_minus_E"] is None
    assert summary["failures"] == []


def _fail_at(monkeypatch, px_values):
    real = cli.solve_fiber

    def solve(P, *args, **kwargs):
        if P[0] in px_values:
            raise EigensolverError(f"injected at {P[0]}")
        return real(P, *args, **kwargs)

    monkeypatch.setattr(cli, "solve_fiber", solve)


def test_sweep_records_failed_momenta(tmp_path, monkeypatch, capsys):
    _fail_at(monkeypatch, {0.4})
    cfg = write_cfg(tmp_path, {"P_max": 0.8, "n_P": 3, "threads": 1})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    header, *rows = (out / "sweep.csv").read_text().splitlines()
    assert header == cli.CSV_HEADER + "," + cli.SWEEP_EXTRA
    assert [float(r.split(",")[0]) for r in rows] == [0.0, 0.8]
    summary = json.loads((out / "sweep_summary.json").read_text())
    failed = {"P": [0.4, 0.0, 0.0], "error": "injected at 0.4"}
    assert summary["failures"] == [failed]
    # bounds keeps the failed row: its closed-form columns, nan where a
    # solve was needed
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    header, *rows = (out / "bounds.csv").read_text().splitlines()
    assert [float(r.split(",")[0]) for r in rows] == [0.0, 0.4, 0.8]
    got = dict(zip(header.split(","), rows[1].split(",")))
    consts = bnd.bound_constants(hamiltonian.build_model(load_config(cfg).params))
    P = np.array([0.4, 0.0, 0.0])
    assert float(got["sigma_minus"]) == consts.sigma_minus(P)
    assert float(got["lower_envelope"]) == consts.lower_envelope(P)
    assert float(got["upper_envelope"]) == consts.upper_envelope(P)
    assert got["sandwich_lower"] == got["sandwich_upper"] == got["count_below"] == "nan"
    assert all("nan" not in row for row in (rows[0], rows[2]))
    err = capsys.readouterr().err.splitlines()
    assert err == [f"eigensolver error: {json.dumps(failed)}"] * 2


def test_sweep_all_momenta_failed(tmp_path, monkeypatch):
    _fail_at(monkeypatch, {0.0, 0.8})
    cfg = write_cfg(tmp_path, {"P_max": 0.8, "n_P": 2})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert len(summary["failures"]) == 2
    assert summary["min_delta"] is None and summary["min_sandwich_lower"] is None


def test_sweep_builds_each_orbit_momentum_once(tmp_path, monkeypatch):
    built = []

    def counted(real):
        def build(P, model, *args, **kwargs):
            built.extend(map(tuple, np.asarray(P, dtype=float).reshape(-1, 3)))
            return real(P, model, *args, **kwargs)

        return build

    # every solve builds H(P) in blocks, the records and the ground energies
    # in the stacks of setup_stacks, at least the first block of each
    # momentum; the dense build_H is left to the checks that need the
    # oracle; each counts the momenta it builds.  The certificate takes the
    # set-ups of setup_stacks and builds no block that it proves
    for fn in ("build_H", "setup_stacks"):
        real = getattr(hamiltonian, fn)
        for name, mod in list(sys.modules.items()):
            if (
                name.startswith("pffiber")
                and name not in ("pffiber.hamiltonian", "pffiber.certificate")
                and getattr(mod, fn, None) is real
            ):
                monkeypatch.setattr(mod, fn, counted(real))
    cfg = write_cfg(tmp_path, {"P_max": 2.0, "n_P": 2, "threads": 1})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    # Delta solves one trial per orbit of the stabilizer of P, less those
    # whose corollary bound gamma sqrt(|P - k|^2 + M^2) - eC' + omega(k) - E(P)
    # exceeds the k = 0 value m_ph = 0.5 (k = 0 reads E(P) and builds
    # nothing), and less those of the rest whose E(P - k) the operator
    # certificate puts above E(P) + 0.5 - omega(k), which builds nothing
    # either.  P = 0, one orbit per shell: P itself; the outer shell is out
    # by its bound (0.96), the inner one (bound 0.45, value 0.55) by the
    # certificate: 1 momentum.  P = 2 x, three orbits per shell (+x, -x,
    # transverse): P itself and +x on the inner shell (value 0.45); -x
    # (bounds 0.53, 1.19) and the outer transverse trial (0.90) are out by
    # their bounds, +x on the outer shell (value 0.60) and the inner
    # transverse trial (0.55) by the certificate: 2 momenta
    assert len(built) == 1 + 2
    assert len(set(built)) == len(built)


def test_sweep_computes_delta_once_per_momentum(tmp_path, monkeypatch):
    real = cli.delta_gap
    calls = []

    def counted(P, *args, **kwargs):
        calls.append(tuple(P))
        return real(P, *args, **kwargs)

    monkeypatch.setattr(cli, "delta_gap", counted)
    cfg = write_cfg(tmp_path, {"P_max": 2.0, "n_P": 2, "threads": 1})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert calls == [(0.0, 0.0, 0.0), (2.0, 0.0, 0.0)]


# Runs a sweep whose momenta are generic (one block with W = 1, eigh), on a C4
# axis and in a mirror plane (the SVD of the mirror blocks); the Delta(P)
# trials take eigvalsh.  Prints the kernel call counts and the scipy and
# concurrent modules the run loaded.
ONE_LAPACK_SCRIPT = """
import json, sys
import numpy as np
import pffiber.cli

calls = dict.fromkeys(["eigh", "eigvalsh", "svd"], 0)
for name in calls:
    def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
        calls[_name] += 1
        return _real(*args, **kwargs)
    setattr(np.linalg, name, counted)
code = pffiber.cli.main(["sweep", "--config", sys.argv[1], "--out", sys.argv[2]])
loaded = {
    pkg: sorted(m for m in sys.modules if m.partition(".")[0] == pkg)
    for pkg in ("scipy", "concurrent")
}
print(json.dumps({"code": code, "calls": calls, **loaded}))
"""


def test_the_program_loads_numpy_linalg_only(tmp_path):
    """numpy.linalg is the one LAPACK of the package: scipy's wheel bundles a
    second OpenBLAS with a thread pool of its own, and two busy-waiting
    pools on the same cores slow every dense solve down.  BLAS is the only
    parallelism: the run starts no thread pool of its own."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "params": {"n_shells": 1, "n_dirs": 6, "N_max": 1},
        "P_list": [[0.31, -0.47, 0.62], [0.9, 0.0, 0.0], [0.6, -0.8, 0.0]],
        "threads": 1,
    }))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    run = subprocess.run(
        [sys.executable, "-c", ONE_LAPACK_SCRIPT, str(cfg), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert all(n > 0 for n in result["calls"].values()), result["calls"]
    assert result["scipy"] == []
    assert result["concurrent"] == []


@pytest.mark.parametrize("case", ["out is a file"])
def test_unusable_output_path_exits_2_before_any_solve(
    tmp_path, capsys, monkeypatch, case
):
    out = tmp_path / "file"
    out.write_text("")

    def refuse(*args, **kwargs):
        raise AssertionError("an unusable path must stop the run before a solve")

    monkeypatch.setattr(cli, "run_bounds", refuse)
    argv = ["bounds", "--config", write_cfg(tmp_path), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("path error:")


def test_the_cache_flag_is_a_usage_error(tmp_path, capsys):
    """The energy cache lives for one run; there is no file to name."""
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--cache", str(tmp_path / "c.json"),
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --cache" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_a_run_writes_only_under_out(tmp_path, monkeypatch):
    """Every subcommand, run from tmp_path, leaves no file outside its
    output folder."""
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, {
        "n_P": 2, "verify": {"n_random_draws": 1, "n_sqrt_draws": 1},
    })
    before = set(tmp_path.rglob("*"))
    for command in ("spectrum", "sweep", "bounds", "convergence", "verify"):
        assert main([command, "--config", cfg, "--out", "out"]) == 0
    out = tmp_path / "out"
    made = set(tmp_path.rglob("*")) - before
    assert out in made and all(p == out or out in p.parents for p in made)


# the three paths of H(P) at N_max 3 on 8 modes (Fock dim 165): real
# rotation blocks along the C4 axis z, the two mirror blocks in the plane
# z = 0 and one dense block at a momentum no symmetry fixes
N3_GRID = {"n_shells": 2, "n_dirs": 2, "N_max": 3}
N3_MOMENTA = {
    "real": [0.0, 0.0, 0.7],
    "mirror": [0.7, 0.3, 0.0],
    "dense": [0.31, -0.47, 0.62],
}


@pytest.mark.parametrize("path", list(N3_MOMENTA))
def test_n_max_3_sweep_and_convergence_match_the_dense_oracle(tmp_path, path):
    P = np.array(N3_MOMENTA[path])
    cfg_path = write_cfg(tmp_path, {
        "params": N3_GRID, "small_params": N3_GRID,
        "convergence_ladder": [[3, 2]], "P_list": [list(P)],
    })
    cfg = load_config(cfg_path)
    model = hamiltonian.build_model(cfg.params)
    blocks = build_H_blocks(P, model)
    sym = hamiltonian.block_generator(P, model)
    if path == "real":
        assert len(blocks) == 4 and all(b.h.dtype == np.float64 for b in blocks)
    elif path == "mirror":
        assert np.linalg.det(sym[0]) < 0 and len(blocks) == 2
    else:
        assert sym is None and len(blocks) == 1
    h = hamiltonian.build_H(P, model)
    e0, e1, mult = spectral._ground_triple(
        scipy.linalg.eigvalsh(h), spectral.CLUSTER_TOL
    )
    tol = 1e-12 * np.linalg.norm(h, 2)
    files = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
        assert main(["convergence", "--config", cfg_path, "--out", str(out)]) == 0
        names = ("sweep.csv", "sweep_summary.json", "convergence.csv")
        files.append([(out / name).read_bytes() for name in names])
    assert files[0] == files[1]
    header, row = (tmp_path / "a" / "sweep.csv").read_text().splitlines()
    got = dict(zip(header.split(","), row.split(",")))
    assert abs(float(got["E"]) - e0) <= tol and abs(float(got["E1"]) - e1) <= tol
    assert int(got["mult"]) == mult
    header, row = (tmp_path / "a" / "convergence.csv").read_text().splitlines()
    assert abs(float(dict(zip(header.split(","), row.split(",")))["E"]) - e0) <= tol
