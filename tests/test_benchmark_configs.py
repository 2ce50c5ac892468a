"""The benchmark's workloads (perfbench/workloads.py) write a config file and
CLI arguments for each seed; a change that drops a config key or a flag they
use stops the benchmark before it runs.  This test loads the workloads module
as the tracer test loads the tracer, and passes every workload's config
through ``config_from_dict`` and its arguments through the CLI's parser."""

import importlib.util
import pathlib

import pytest

from pffiber import cli
from pffiber.config import config_from_dict

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
