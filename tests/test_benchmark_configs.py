"""The benchmark's workloads (perfbench/workloads.py) write a config file and
CLI arguments for each seed; a change that drops a config key or a flag they
use stops the benchmark before it runs.  This test loads the workloads module
as the tracer test loads the tracer, and passes every workload's config
through ``config_from_dict`` and its arguments through the CLI's parser.
It runs ``desk-verify`` through the benchmark's gate, and pins the solves of
the ``large-rung`` rung and the memory of the ``mid-sweep`` certificate."""

import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from pffiber import cli, hamiltonian
from pffiber.config import config_from_dict
from pffiber.hamiltonian import build_model
from pffiber.spectral import ground_data

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("seed", [2026, 7])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_workload_config_and_arguments_load(tmp_path, workload, seed):
    cfg = config_from_dict(workloads.make_config(workload, seed))
    assert cfg.momenta()
    args = workloads.cli_args(workload, seed, str(tmp_path / "cfg.json"),
                              str(tmp_path / "out"))
    parsed = cli.build_parser().parse_args(args)
    assert parsed.command == workloads.COMMANDS[workload]


@pytest.mark.parametrize("seed", [2026, 7])
def test_desk_verify_passes_the_benchmark_gate(tmp_path, capsys, seed):
    """``desk-verify`` run through ``cli.main`` at the benchmark's seeds and
    read back by its ``read_ops``: no operation fails the gate against the
    stored reference, so a renamed check or a changed ``passed`` key shows
    here before it shows as a failed benchmark run.  Every hard check's
    comparisons are finite."""
    config_path, out = tmp_path / "cfg.json", tmp_path / "out"
    config_path.write_text(json.dumps(workloads.make_config("desk-verify", seed)))
    code = cli.main(workloads.cli_args("desk-verify", seed, str(config_path), str(out)))
    assert code in workloads.ALLOWED_EXIT["desk-verify"]
    assert "Traceback" not in capsys.readouterr().err
    ops = workloads.read_ops("desk-verify", str(out))
    reference = workloads.load_reference("desk-verify", seed)
    assert reference is not None
    assert workloads.gate("desk-verify", ops, reference, []) == {op: [] for op in ops}
    report = json.loads((out / "verify_report.json").read_text())
    hard = [c for c in report["checks"] if c["hard"]]
    assert len(hard) == 21
    values = [c["value"] for check in hard for c in check["comparisons"]]
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


@pytest.mark.parametrize("seed", [2026, 7])
def test_the_large_rung_roots_and_solves_one_block(monkeypatch, seed):
    """The ``large-rung`` rung (48 modes, N_max 2; P = 0.358x at seed 2026,
    1.25x at seed 7): real C4 blocks in the theta-pairs 0-3 and 1-2.
    ground_data roots and solves block 0, and the certificate proves block
    1 above it without building it: one kinetic_root and one eigvalsh."""
    cfg = config_from_dict(workloads.make_config("large-rung", seed))
    ((n_max, n_shells),) = cfg.convergence_ladder
    model = build_model(cfg.small_params.replace(N_max=n_max, n_shells=n_shells))
    (P,) = cfg.momenta()
    assert model.dim == 1225 and P[1:].tolist() == [0.0, 0.0]
    calls = {"kinetic_root": 0, "eigvalsh": 0}
    for owner, name in ((hamiltonian, "kinetic_root"), (np.linalg, "eigvalsh")):
        def counted(*args, real=getattr(owner, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counted)
    ground_data(P, model)
    assert calls == {"kinetic_root": 1, "eigvalsh": 1}


# certify_above on the Delta trial stacks of a config, replayed under
# tracemalloc once the search has built every set-up; prints the number of
# stacks, the peak bytes and whether numpy.polynomial was ever imported
CERTIFY_PEAK_SCRIPT = r"""
import json, sys, tracemalloc
import numpy as np
import pffiber.cli
from pffiber import spectral
from pffiber.config import config_from_dict
from pffiber.hamiltonian import build_model

cfg = config_from_dict(json.loads(sys.argv[1]))
model = build_model(cfg.params)
stacks, real = [], spectral.certify_above
spectral.certify_above = lambda P, tau, m: stacks.append((P, tau)) or real(P, tau, m)
spectral.delta_search(np.array(cfg.momenta()), model)
peak = 0
for P, tau in stacks:
    tracemalloc.start()
    real(P, tau, model)
    peak = max(peak, tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
print(json.dumps({"stacks": len(stacks), "peak": peak,
                  "polynomial": "numpy.polynomial" in sys.modules}))
"""


def test_the_mid_sweep_certificate_forms_no_block_matrix():
    """In a fresh process that imports the CLI, builds the ``mid-sweep``
    model (seed 2026) and searches its Delta trials: certify_above on the
    trial stacks peaks below 0.5 MB of traced memory, where the Gram
    product and its Cholesky took 5.1 MB, and numpy.polynomial is never
    imported."""
    config = json.dumps(workloads.make_config("mid-sweep", 2026))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", CERTIFY_PEAK_SCRIPT, config],
                         capture_output=True, text=True, env=env, timeout=300, check=True)
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["stacks"] > 0 and not result["polynomial"]
    assert result["peak"] < 0.5e6
