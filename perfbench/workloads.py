"""The benchmark's workloads, their inputs and their correctness gate.

A workload turns a seed into a config file and CLI arguments (the program
sees nothing else), names the parameter sets its set-up builds, and reads the
CLI outputs back as *operations*: one per momentum for ``sweep``, one per
rung for ``convergence`` and one per hard check for ``verify``.  The gate
compares operations with a stored reference when one exists for the seed and
checks only the physical invariants otherwise.  Why each workload was chosen
is in README.md.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

WORKLOADS = ("desk-verify", "mid-sweep", "large-rung")
COMMANDS = {"desk-verify": "verify", "mid-sweep": "sweep", "large-rung": "convergence"}
# the exit codes a correct run may give: verify reports a failed check as 1
ALLOWED_EXIT = {"desk-verify": {0, 1}, "mid-sweep": {0}, "large-rung": {0}}

P_MAX = 2.0
MID_MOMENTA = 3
FLOAT_TOL = 1e-9  # agreement demanded of any fast path with the dense oracle
DELTA_TOL = 1e-12  # rounding of E(P) + m_ph - E(P) at the k = 0 trial
ENVELOPE_TOL = 1e-9  # bounds.SANDWICH_TOL, used by the CLI's envelope_ok


def make_config(workload: str, seed: int) -> dict:
    """The JSON config of one run; the seed enters only here."""
    rng = np.random.default_rng(seed)
    if workload == "desk-verify":
        return {"threads": 1}
    if workload == "mid-sweep":
        mags = rng.uniform(0.0, P_MAX, size=MID_MOMENTA)
        return {
            "params": {"N_max": 2},
            "P_list": [[float(m), 0.0, 0.0] for m in mags],
            "threads": 1,
        }
    if workload == "large-rung":
        mag = float(rng.uniform(0.0, P_MAX))
        return {
            "small_params": {"n_shells": 4, "n_dirs": 6, "N_max": 2},
            "convergence_ladder": [[2, 4]],
            "P_list": [[mag, 0.0, 0.0]],
            "threads": 1,
        }
    raise ValueError(f"unknown workload {workload!r}")


def cli_args(workload: str, seed: int, config_path: str, out_dir: str) -> list:
    args = [COMMANDS[workload], "--config", config_path, "--out", out_dir]
    args += ["--threads", "1"]
    if workload == "desk-verify":
        args += ["--seed", str(seed)]
    return args


def expected_ops(workload: str, config: dict, reference: dict | None) -> int:
    """Operations a run attempts, known before it starts."""
    if workload == "mid-sweep":
        return len(config["P_list"])
    if workload == "large-rung":
        return len(config["convergence_ladder"])
    return len(reference) if reference is not None else 1


# ----------------------------------------------------------------------
# inside the program's process (pffiber imported)
# ----------------------------------------------------------------------

def _rungs(small_params, ladder):
    return [small_params.replace(N_max=n, n_shells=s) for n, s in ladder]


def setup_params(workload: str, cfg) -> list:
    """Parameter sets whose model and constants the set-up builds."""
    if workload == "mid-sweep":
        return [cfg.params]
    if workload == "large-rung":
        return _rungs(cfg.small_params, cfg.convergence_ladder)
    # the deterministic part of verify: the coupling ladder and the
    # convergence-trend report; draws at random couplings are left to the run
    return (
        [cfg.params]
        + [cfg.params.replace(e=e) for e in cfg.verify.e_values]
        + _rungs(cfg.small_params.replace(e=0.1), cfg.convergence_ladder)
    )


def op_bounds(workload: str, cfg) -> list:
    """Per output operation: the coupling, m_ph and the corollary envelope
    of E, from the program's bound constants."""
    from pffiber.bounds import bound_constants
    from pffiber.hamiltonian import build_model

    if workload == "mid-sweep":
        pairs = [(cfg.params, P) for P in cfg.momenta()]
    elif workload == "large-rung":
        momenta = cfg.momenta()
        P = momenta[len(momenta) // 2]
        pairs = [(p, P) for p in _rungs(cfg.small_params, cfg.convergence_ladder)]
    else:
        return []
    out = []
    for params, P in pairs:
        consts = bound_constants(build_model(params))
        out.append(
            {
                "e": params.e,
                "m_ph": params.m_ph,
                "lower": consts.lower_envelope(P),
                "upper": consts.upper_envelope(P),
            }
        )
    return out


# ----------------------------------------------------------------------
# reading outputs back
# ----------------------------------------------------------------------

def _num(text: str):
    if text == "nan":
        return None
    try:
        return int(text)
    except ValueError:
        return float(text)


def _read_csv(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: _num(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def read_ops(workload: str, out_dir: str) -> dict:
    """Operation id -> record parsed from the CLI outputs.

    Raises OSError or ValueError when an output is missing or malformed.
    """
    if workload == "mid-sweep":
        rows = _read_csv(os.path.join(out_dir, "sweep.csv"))
        return {f"P={r['P_x']!r},{r['P_y']!r},{r['P_z']!r}": r for r in rows}
    if workload == "large-rung":
        rows = _read_csv(os.path.join(out_dir, "convergence.csv"))
        return {f"rung={r['N_max']},{r['n_shells']}": r for r in rows}
    with open(os.path.join(out_dir, "verify_report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    ops = {
        c["name"]: {"passed": c["passed"]} for c in report["checks"] if c["hard"]
    }
    # the CLI's Kramers certificates belong to the Kramers check
    kramers = [name for name in ops if name.endswith(" Kramers degeneracy")]
    if len(kramers) != 1:
        raise ValueError("verify report has no single Kramers check")
    ops[kramers[0]]["certificates"] = report["kramers_certificates"]
    return ops


# ----------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------

def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _differs(got, ref) -> bool:
    if isinstance(ref, dict):
        return not isinstance(got, dict) or set(got) != set(ref) or any(
            _differs(got[k], ref[k]) for k in ref
        )
    if isinstance(ref, list):
        return not isinstance(got, list) or len(got) != len(ref) or any(
            _differs(g, r) for g, r in zip(got, ref)
        )
    if _is_number(got) and _is_number(ref) and float in (type(got), type(ref)):
        return not abs(got - ref) <= FLOAT_TOL
    return type(got) is not type(ref) or got != ref


def _invariant_failures(workload: str, op: dict, bounds: dict | None) -> list:
    bad = []
    if workload == "desk-verify":
        if not op["passed"]:
            bad.append("hard check failed")
        for cert in op.get("certificates", []):
            mult, count = cert["ground_multiplicity"], cert["count_below_sigma"]
            if mult is not None and mult % 2:
                bad.append(f"odd ground multiplicity at P={cert['P']}")
            if count is not None and count > 2:
                bad.append(f"count_below > 2 at P={cert['P']}")
        return bad
    E = op["E"]
    if not isinstance(E, float) or not math.isfinite(E):
        return [f"E is {E!r}"]
    if bounds is None:
        return ["no envelope recorded"]
    if not bounds["lower"] - ENVELOPE_TOL <= E <= bounds["upper"] + ENVELOPE_TOL:
        bad.append(f"E={E!r} outside [{bounds['lower']!r}, {bounds['upper']!r}]")
    if workload == "mid-sweep":
        if bounds["e"] > 0 and op["mult"] % 2:
            bad.append(f"odd multiplicity {op['mult']} at e > 0")
        if not op["delta"] <= bounds["m_ph"] + DELTA_TOL:
            bad.append(f"Delta={op['delta']!r} above m_ph")
        if op["count_below"] > 2:
            bad.append(f"count_below={op['count_below']} above 2")
    return bad


def gate(workload: str, ops: dict, reference: dict | None, bounds: list) -> dict:
    """Operation id -> list of failure reasons (empty when it passed).

    ``bounds`` is :func:`op_bounds` of the run, in output order.  The
    invariants are checked always.  With a reference, every operation must
    also match it (floats within FLOAT_TOL; integers, flags and strings
    exactly) and no operation may be missing or extra.
    """
    out = {}
    for i, op_id in enumerate(ops):
        b = bounds[i] if i < len(bounds) else None
        out[op_id] = _invariant_failures(workload, ops[op_id], b)
    if reference is not None:
        for op_id, ref in reference.items():
            if op_id not in ops:
                out[op_id] = ["missing from the output"]
            elif _differs(ops[op_id], ref):
                out[op_id].append("differs from the reference")
        for op_id in ops:
            if op_id not in reference:
                out[op_id].append("not in the reference")
    return out


def reference_path(workload: str, seed: int) -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(here, "reference", f"{workload}-seed{seed}.json")


def load_reference(workload: str, seed: int) -> dict | None:
    try:
        with open(reference_path(workload, seed), encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None
