"""One pffiber process of the benchmark: set up, then run the CLI entry point.

Usage: python3 child.py SPEC.json

SPEC holds ``workload``, ``seed``, ``config``, ``out``, ``result`` (the
side-car JSON this process writes), ``trace`` (0 or 1), ``setup_only`` and
``run_id``.  Set-up is the import of pffiber, the config load and
``build_model`` plus ``bound_constants`` for every parameter set the workload
names; the CLI then reuses the cached models.  The side-car records the
``time.monotonic()`` reading at the end of set-up (the clock is system-wide,
so the parent subtracts its launch reading), the per-operation bounds the
correctness gate needs and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    sys.path.insert(0, src)

    import pffiber.cli
    from pffiber.bounds import bound_constants
    from pffiber.config import load_config

    import workloads

    if not os.path.abspath(pffiber.__file__).startswith(src + os.sep):
        raise ImportError(f"pffiber imported from {pffiber.__file__}, not {src}")

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install()
    result = {}
    try:
        cfg = load_config(spec["config"])
        for params in workloads.setup_params(spec["workload"], cfg):
            bound_constants(pffiber.hamiltonian.build_model(params))
        result["setup_end"] = time.monotonic()
        if spec["setup_only"]:
            return 0
        argv = workloads.cli_args(
            spec["workload"], spec["seed"], spec["config"], spec["out"]
        )
        code = pffiber.cli.main(argv)
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.metrics()
            tracer.write_spans(spec["spans"])
        result["bounds"] = workloads.op_bounds(spec["workload"], cfg)
        return code
    finally:
        with open(spec["result"], "w", encoding="utf-8") as fh:
            json.dump(result, fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
