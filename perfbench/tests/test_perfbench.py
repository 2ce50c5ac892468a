"""Tests of the benchmark itself: names, tracer arithmetic and counts, gate.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import tracer as tr
import workloads
from pffiber import bounds, cli, hamiltonian, spectral
from pffiber.modes import ModelParams

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# 4 modes, Fock dim 5; a Lambda no other test uses keeps its model uncached
TINY = ModelParams(
    e=0.1, gamma=0.5, M=1.0, m_ph=0.5, Lambda=0.93, n_shells=1, n_dirs=2, N_max=1
)


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def tracer():
    t = tr.Tracer("test")
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_metric_names_are_well_formed(tracer):
    spectral.ground_data(np.zeros(3), TINY)
    bench = _bench()
    declared = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    produced = list(tracer.metrics())
    for name in declared + produced:
        assert NAME.fullmatch(name), name
    assert len(set(declared)) == len(declared)
    # every per-layer metric the tracer produces is declared, and back
    per_layer = {m["name"] for m in bench["per_layer"]}
    assert set(produced) | {"cli.output.bytes", "trace.overhead_s"} == per_layer


def test_self_time_of_synthetic_nesting():
    S = tr.Span
    spans = [
        S(0, "outer", 0.0, 10.0, None, 1),
        S(1, "a", 1.0, 3.0, 0, 1),
        S(2, "b", 2.0, 4.0, 0, 1),  # overlaps a: the union counts once
        S(3, "c", 6.0, 7.0, 0, 1),
        S(4, "inner", 6.2, 6.7, 3, 1),
        S(5, "d", 9.5, 12.0, 0, 1),  # runs past its parent: clipped
    ]
    own = tr.self_times(spans)
    assert own[0] == pytest.approx(10.0 - (3.0 + 1.0 + 0.5))
    assert own[3] == pytest.approx(0.5)
    assert own[4] == pytest.approx(0.5)
    assert own[1] == pytest.approx(2.0)


def test_self_time_of_wrapped_nested_calls():
    ticks = iter(range(100))
    t = tr.Tracer("clock", clock=lambda: float(next(ticks)))
    leaf = t.wrap(lambda: None, "leaf")
    mid = t.wrap(lambda: (leaf(), leaf()), "mid")
    top = t.wrap(lambda: (mid(), leaf()), "top")
    top()
    # clock reads: top 0, mid 1, leaf 2-3, leaf 4-5, mid end 6, leaf 7-8, top 9
    m = {s.name: s for s in t.spans}
    assert m["top"].parent is None and m["mid"].parent == m["top"].sid
    own = tr.self_times(t.spans)
    by_name = {}
    for s in t.spans:
        by_name[s.name] = by_name.get(s.name, 0.0) + own[s.sid]
    assert by_name == {"leaf": 3.0, "mid": 3.0, "top": 3.0}


def test_every_binding_is_patched_and_restored():
    originals = (hamiltonian.build_H, spectral.ground_data, np.linalg.eigh)
    t = tr.Tracer("patch")
    t.install()
    try:
        for mod in (cli, bounds, spectral, hamiltonian):
            if hasattr(mod, "build_H"):
                assert mod.build_H is not originals[0]
                assert mod.build_H.__wrapped__ is originals[0]
        assert cli.ground_data is bounds.ground_data is spectral.ground_data
        assert cli.ground_data is not originals[1]
        assert np.linalg.eigh.__wrapped__ is originals[2]
    finally:
        t.uninstall()
    assert cli.build_H is bounds.build_H is originals[0]
    assert cli.ground_data is originals[1]
    assert np.linalg.eigh is originals[2]


def test_traced_counts_equal_program_counters(tracer):
    before = hamiltonian.build_model.cache_info()
    cache = spectral.EnergyCache()
    P = np.array([0.3, 0.0, 0.0])
    spectral.delta_gap(P, TINY, cache=cache)
    spectral.ground_data(P, TINY, cache=cache)
    hamiltonian.build_model(TINY)
    after = hamiltonian.build_model.cache_info()
    m = tracer.metrics()
    assert cache.hits > 0 and cache.misses > 0
    assert m["spectral.energy_cache.hits"] == cache.hits
    assert m["spectral.energy_cache.misses"] == cache.misses
    assert m["hamiltonian.build_model.cache_hits"] == after.hits - before.hits
    assert m["hamiltonian.build_model.calls"] == (
        after.hits + after.misses - before.hits - before.misses
    )
    # one dense solve per cache miss, one square root per build_H
    assert m["hamiltonian.build_H.calls"] == cache.misses
    assert m["hamiltonian.op_sqrt_eig.calls"] == m["hamiltonian.build_H.calls"]
    assert m["hamiltonian.build_H.distinct_ratio"] == 1.0
    assert m["linalg.eigh.n3"] == m["linalg.eigh.calls"] * 10**3


def _mid_reference():
    ref = workloads.load_reference("mid-sweep", 2026)
    assert ref is not None
    return ref


def _mid_bounds(ref):
    return [
        {"e": 0.1, "m_ph": 0.5, "lower": op["E"] - 1.0, "upper": op["E"] + 1.0}
        for op in ref.values()
    ]


def test_gate_passes_the_reference_itself():
    ref = _mid_reference()
    fails = workloads.gate("mid-sweep", copy.deepcopy(ref), ref, _mid_bounds(ref))
    assert not any(fails.values())


def test_negative_control_perturbed_reference_fails():
    """A reference off by more than the 1e-9 gate makes fail_ratio non-zero."""
    ref = _mid_reference()
    ops = copy.deepcopy(ref)
    bad = copy.deepcopy(ref)
    first = next(iter(bad))
    bad[first]["E"] += 2e-9
    fails = workloads.gate("mid-sweep", ops, bad, _mid_bounds(ref))
    failed = sum(1 for r in fails.values() if r)
    assert failed == 1 and failed / len(fails) > 0
    bad = copy.deepcopy(ref)
    bad[first]["count_below"] += 1  # integers match exactly
    fails = workloads.gate("mid-sweep", ops, bad, _mid_bounds(ref))
    assert sum(1 for r in fails.values() if r) == 1


def test_negative_control_verify_reference():
    ref = workloads.load_reference("desk-verify", 2026)
    assert ref is not None
    ops = copy.deepcopy(ref)
    bad = copy.deepcopy(ref)
    kramers = next(k for k in bad if "certificates" in bad[k])
    bad[kramers]["certificates"][0]["conclusion"] = "at least two-fold"
    assert not any(workloads.gate("desk-verify", ops, ref, []).values())
    fails = workloads.gate("desk-verify", ops, bad, [])
    assert [k for k, r in fails.items() if r] == [kramers]


def test_invariants_without_reference():
    ref = _mid_reference()
    ops = copy.deepcopy(ref)
    first = next(iter(ops))
    ops[first]["mult"] = 3
    ops[first]["delta"] = 0.6
    fails = workloads.gate("mid-sweep", ops, None, _mid_bounds(ref))
    assert len(fails[first]) == 2
    assert sum(1 for r in fails.values() if r) == 1


def test_run_fails_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mid-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
