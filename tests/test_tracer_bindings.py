"""The benchmark's tracer (perfbench/tracer.py) patches functions of the
package by name and reads ``build_model.cache_info``; a refactor that drops
one of them breaks the traced benchmark.  This test installs the tracer on
the current package, runs a model build and a ground-state solve through it,
and checks that uninstalling leaves every binding as it was."""

import importlib.util
import pathlib
import sys

import numpy as np
import scipy.linalg  # noqa: F401  (the tracer patches it as well)

# cli loads every module the tracer patches
from pffiber import bounds, cli, hamiltonian, spectral

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every attribute of the pffiber modules, of numpy.linalg and
    scipy.linalg, and of ``EnergyCache``."""
    out = {}
    patched = ("numpy.linalg", "scipy.linalg")
    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] == "pffiber" or name in patched:
            out.update({(name, attr): value for attr, value in vars(mod).items()})
    out.update({("EnergyCache", a): v for a, v in vars(spectral.EnergyCache).items()})
    return out


def test_the_tracer_installs_and_restores_every_binding(small_params):
    tracer = _load_tracer().Tracer("tier-1")
    before = _bindings()
    tracer.install()
    try:
        original = before[("pffiber.hamiltonian", "build_model")]
        assert hamiltonian.build_model is not original
        model = hamiltonian.build_model(small_params)
        spectral.ground_data(np.array([0.3, 0.0, 0.0]), model)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert [key for key, value in before.items() if after.get(key) is not value] == []
    metrics = tracer.metrics()
    assert metrics["hamiltonian.build_model.calls"] == 1
    assert metrics["spectral.ground_data.calls"] == 1
    assert metrics["linalg.eigvalsh.calls"] >= 1


def test_the_modules_bind_the_functions_the_benchmark_tests_pin():
    """perfbench's own tests hold ``build_H`` and ``ground_data`` of cli,
    bounds and spectral to be one function each, the one the tracer wraps
    in every module; they are not tier-1, so the identities are held here."""
    assert cli.build_H is bounds.build_H is hamiltonian.build_H
    assert cli.ground_data is bounds.ground_data is spectral.ground_data
