"""Benchmark of the pffiber CLI, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload mid-sweep --seed 7 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json: it runs
fresh ``pffiber`` processes (``child.py``) back to back until ``--seconds``
have passed, at least one, then set-up-only processes until there are
MIN_SETUPS set-up samples, and reports medians.  ``--trace 1`` runs one
untraced and one traced process and reports the per-layer metrics of the
traced one, plus the difference of their wall times as the tracing overhead;
its work is fixed so that call counts repeat exactly.  ``--workload all``
runs every workload in turn.

Every process is checked by the correctness gate of ``workloads.py``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run files go to
``.perfbench_runs/`` under the repository root; ``--save-reference`` stores
the outputs of a run as the reference of its seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(ROOT, ".perfbench_runs")
CHILD = os.path.join(HERE, "child.py")
MIN_SETUPS = 3
RUN_LIMIT_S = 170.0  # a run, all its processes included, ends within this
DEFAULT_SEED = 2026  # the verify suite's own default seed
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Exec:
    """One finished child process."""

    tag: str
    out: str
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    traceback: bool
    result: dict
    setup_s: float | None = None
    attempted: int = 0
    failed: int = 0
    failures: dict = field(default_factory=dict)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> tuple[dict, dict]:
    """Environment of the pffiber processes, with BLAS threads capped at nproc.

    The sweep pool runs one thread (``--threads 1``); without the cap the
    BLAS pool could still oversubscribe the cores.
    """
    caps = {var: str(nproc()) for var in BLAS_THREAD_VARS}
    return {**os.environ, **caps}, caps


def blas_vendor() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment(caps: dict) -> dict:
    import scipy

    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_vendor(),
        "thread_caps": caps,
        "nproc": nproc(),
        "loadavg_before": list(os.getloadavg()),
    }


def run_child(run_dir: str, tag: str, spec: dict, env: dict, deadline: float) -> Exec:
    """Start one child, wait for it and collect its usage and side-car.

    The child is killed at ``deadline`` (a ``time.monotonic()`` reading).
    """
    d = os.path.join(run_dir, tag)
    os.makedirs(d)
    spec = {
        **spec,
        "out": os.path.join(d, "out"),
        "result": os.path.join(d, "result.json"),
        "spans": os.path.join(d, "spans.jsonl"),
        "run_id": f"{os.path.basename(run_dir)}-{tag}",
    }
    spec_path = os.path.join(d, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    err_path = os.path.join(d, "stderr.txt")
    with open(os.path.join(d, "stdout.txt"), "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, spec_path], cwd=ROOT, env=env,
            stdout=out, stderr=err,
        )
        timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    try:
        with open(spec["result"], encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = {}
    with open(err_path, "rb") as fh:
        traceback = b"Traceback (most recent call last)" in fh.read()
    ex = Exec(
        tag=tag,
        out=spec["out"],
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        traceback=traceback,
        result=result,
    )
    if "setup_end" in result:
        ex.setup_s = result["setup_end"] - start
    return ex


def judge(workload: str, config: dict, reference: dict | None, ex: Exec) -> None:
    """Fill ``attempted`` and ``failures`` of a finished full run."""
    expected = workloads.expected_ops(workload, config, reference)
    broken = None
    if ex.traceback:
        broken = "traceback on stderr"
    elif ex.code not in workloads.ALLOWED_EXIT[workload]:
        broken = f"exit code {ex.code}"
    else:
        try:
            ops = workloads.read_ops(workload, ex.out)
        except (OSError, ValueError, KeyError) as exc:
            broken = f"unreadable output: {exc!r}"
    if broken is not None:
        ex.attempted = ex.failed = expected
        ex.failures = {f"{ex.tag}: run": [broken]}
        return
    fails = workloads.gate(workload, ops, reference, ex.result.get("bounds", []))
    ex.attempted = max(expected, len(fails))
    ex.failures = {f"{ex.tag}: {k}": v for k, v in fails.items() if v}
    ex.failed = len(ex.failures)
    if len(fails) < expected:
        ex.failures[f"{ex.tag}: run"] = [f"{expected - len(fails)} operations missing"]
        ex.failed += expected - len(fails)


def output_bytes(out_dir: str) -> int:
    return sum(
        os.path.getsize(os.path.join(base, name))
        for base, _, names in os.walk(out_dir)
        for name in names
    )


def measure(workload: str, seed: int, seconds: float, trace: bool, save: bool, bench: dict):
    """Run one workload; returns (summary lines, result object)."""
    run_dir = os.path.join(RUNS, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    config = workloads.make_config(workload, seed)
    config_path = os.path.join(run_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    reference = None if save else workloads.load_reference(workload, seed)
    env, caps = child_env()
    record = environment(caps)
    spec = {"workload": workload, "seed": seed, "config": config_path, "trace": 0, "setup_only": False}

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    extra = []  # set-up-only processes
    if trace:
        runs = [
            run_child(run_dir, "plain", spec, env, deadline),
            run_child(run_dir, "traced", {**spec, "trace": 1}, env, deadline),
        ]
    else:
        runs = []
        while not runs or time.monotonic() - start < seconds:
            runs.append(run_child(run_dir, f"run{len(runs)}", spec, env, deadline))
        while sum(ex.setup_s is not None for ex in runs + extra) < MIN_SETUPS:
            ex = run_child(
                run_dir, f"setup{len(extra)}", {**spec, "setup_only": True}, env, deadline
            )
            extra.append(ex)
            if ex.setup_s is None:
                break
    setups = [ex.setup_s for ex in runs + extra if ex.setup_s is not None]
    for ex in runs:
        judge(workload, config, reference, ex)
    record["loadavg_after"] = list(os.getloadavg())
    record["processes"] = [
        {k: getattr(ex, k) for k in ("tag", "code", "wall_s", "cpu_s", "peak_rss_mb", "setup_s")}
        for ex in runs + extra
    ]
    with open(os.path.join(run_dir, "env.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    attempted = sum(ex.attempted for ex in runs)
    failures = {k: v for ex in runs for k, v in ex.failures.items()}
    failed = sum(ex.failed for ex in runs)
    if save and not failures:
        with open(workloads.reference_path(workload, seed), "w", encoding="utf-8") as fh:
            json.dump(workloads.read_ops(workload, runs[0].out), fh, indent=1, sort_keys=True)

    if trace:
        plain, traced = runs
        layers = dict(traced.result.get("layers", {}))
        layers["trace.overhead_s"] = traced.wall_s - plain.wall_s
        layers["cli.output.bytes"] = output_bytes(traced.out)
        names = bench["per_layer"]
        values = {m["name"]: layers.get(m["name"], 0) for m in names}
    else:
        names = bench["end_to_end"]
        values = {
            "wall_s": statistics.median(r.wall_s for r in runs),
            "setup_s": statistics.median(setups) if setups else float("nan"),
            "cpu_s": statistics.median(r.cpu_s for r in runs),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}

    check = "reference" if reference is not None else "invariants"
    lines = [
        f"perfbench {workload} seed={seed} trace={int(trace)}: {len(runs)} processes, "
        f"{len(setups)} set-up samples, {check} check",
    ]
    if not trace:
        lines += [f"  {k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    lines.append(f"  fail_ratio = {failed / max(attempted, 1):.6g} ({failed}/{attempted})")
    lines += [f"  FAIL {k}: {'; '.join(v)}" for k, v in list(failures.items())[:20]]
    lines.append("  env " + json.dumps(record, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return lines, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save-reference", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pffiber", "cli.py")):
        print(f"perfbench: no pffiber source under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        lines, result = measure(
            name, args.seed, args.seconds, bool(args.trace), args.save_reference, bench
        )
        print("\n".join(lines), flush=True)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        total["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
