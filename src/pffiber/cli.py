"""Command-line driver: single-point runs, P sweeps, and verification.

Subcommands
-----------
spectrum     per-momentum JSON reports plus an aggregate CSV
sweep        CSV with bound-check columns, plus a summary of min-over-P margins
bounds       explicit constants and sandwich margins along the ladder
convergence  E(P) along the truncation refinement ladder
verify       full check suite; exit code 0 iff all hard checks pass
print-config dump the effective configuration (defaults merged with --config)

Common flags: --config PATH, --out DIR, --threads N, --seed N.
Exit codes: 0 pass, 1 assertion failure (or an eigensolver failure that
stops convergence or verify), 2 usage, config or path error.

Outputs render floats with 17 significant digits so files round-trip
losslessly.  Momenta are solved in ladder order in one thread (``--threads``
selects nothing), so reruns are byte-identical at a fixed configuration.
Each command runs on one BLAS thread, and only kernels of at least the
work of a real matrix of dimension ``pffiber.blas.LIFT_N`` get back the
count the process asked for (:mod:`pffiber.blas`); a run whose kernels
are all smaller writes the same bytes at any ``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import bounds as bnd
from .blas import one_thread
from .config import ConfigError, RunConfig, default_config, dump_config, load_config
# build_H and ground_data are unused here but stay bound: the tests of
# perfbench/tracer.py check that tracing patches this module's copies
from .hamiltonian import build_H, build_model  # noqa: F401
from .kramers import kramers_certificate
from .spectral import (  # noqa: F401
    EnergyCache,
    EigensolverError,
    SpectrumReport,
    convergence_study,
    delta_gap,
    ground_data,
    solve_fiber,
)
from .verify import VerifyStopped, run_verify

CSV_HEADER = "P_x,P_y,P_z,E,E1,mult,delta,sigma_minus,count_below"
SWEEP_EXTRA = (
    "sandwich_lower,sandwich_upper,delta_margin,chain_margin,direct_margin,"
    "envelope_ok"
)
# the bound constants that sweep_summary.json and bound_constants.json carry
CONSTANT_NAMES = ("gamma", "M", "m_ph", "e_c1", "e_c_prime", "e_c2", "e_c3", "e2_c4")


def _fmt(x) -> str:
    if x is None:
        return "nan"
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def compute_report(P, model, consts, cache):
    """(report, solve): the per-momentum summary from one solve of H(P)."""
    solve = solve_fiber(P, model, cache)
    sigma = consts.sigma_minus(P)
    report = SpectrumReport(
        P=solve.P,
        E=solve.E,
        E1=solve.E1,
        ground_multiplicity=solve.mult,
        delta=delta_gap(P, model, cache=cache),
        sigma_minus=sigma,
        eigencount_below_sigma=bnd.count_below(solve.eigenvalues, sigma),
        residuals=dict(solve.residuals),
    )
    return report, solve


def _scaled_sandwich(solve) -> tuple:
    """(lower, upper) sandwich margins over their scale; None at gamma >= 1."""
    lower, upper, scale = solve.sandwich or (None, None, None)
    return (None, None) if scale is None else (lower / scale, upper / scale)


def _each_momentum(momenta, work):
    """Yield work(P) for each momentum in ladder order.  An eigensolver
    failure yields the record {"P": ..., "error": ...} instead, also on
    stderr, and the run goes on."""
    for P in momenta:
        try:
            yield work(P)
        except EigensolverError as exc:
            failed = {"P": [float(x) for x in P], "error": str(exc)}
            print(f"eigensolver error: {json.dumps(failed)}", file=sys.stderr)
            yield failed


def run_spectrum(cfg: RunConfig, out_dir: str, cache: EnergyCache) -> int:
    model = build_model(cfg.params)
    consts = bnd.bound_constants(model)

    def work(P):
        return compute_report(P, model, consts, cache)[0]

    csv_path = os.path.join(out_dir, "spectrum.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for i, rep in enumerate(_each_momentum(cfg.momenta(), work)):
            if isinstance(rep, dict):  # a failure has its report but no CSV row
                text = json.dumps(rep, indent=2)
            else:
                vals = (
                    *rep.P, rep.E, rep.E1, rep.ground_multiplicity, rep.delta,
                    rep.sigma_minus, rep.eigencount_below_sigma,
                )
                fh.write(",".join(_fmt(v) for v in vals) + "\n")
                text = rep.to_json()
            with open(
                os.path.join(out_dir, f"P_{i:03d}.json"), "w", encoding="utf-8"
            ) as jf:
                jf.write(text)
    return 0


def run_sweep(cfg: RunConfig, out_dir: str, cache: EnergyCache) -> int:
    model = build_model(cfg.params)
    consts = bnd.bound_constants(model)

    def work(P):
        rep, solve = compute_report(P, model, consts, cache)
        gap = bnd.theorem_gap_report(
            P, model, consts, cache=cache, solve=solve, delta=rep.delta
        )
        return rep, _scaled_sandwich(solve), gap

    rows = list(_each_momentum(cfg.momenta(), work))
    failures = [r for r in rows if isinstance(r, dict)]
    rows = [r for r in rows if not isinstance(r, dict)]
    csv_path = os.path.join(out_dir, "sweep.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "," + SWEEP_EXTRA + "\n")
        for rep, (lo, hi), gap in rows:
            vals = (
                *rep.P, rep.E, rep.E1, rep.ground_multiplicity, rep.delta,
                rep.sigma_minus, rep.eigencount_below_sigma,
                lo, hi, gap.delta_margin, gap.chain_margin, gap.direct_margin,
                gap.envelope_ok,
            )
            fh.write(",".join(_fmt(v) for v in vals) + "\n")

    gaps = [r[2] for r in rows]
    margins = [r[1] for r in rows if r[1][0] is not None]
    summary = {
        "constants": {k: getattr(consts, k) for k in CONSTANT_NAMES},
        "min_E1_minus_E": min(
            (g.E1 - g.E for g in gaps if g.E1 is not None), default=None
        ),
        "min_delta": min((g.delta for g in gaps), default=None),
        "min_sandwich_lower": min((m[0] for m in margins), default=None),
        "min_sandwich_upper": min((m[1] for m in margins), default=None),
        "min_delta_margin": min((g.delta_margin for g in gaps), default=None),
        "min_chain_margin": min((g.chain_margin for g in gaps), default=None),
        "min_direct_margin": min((g.direct_margin for g in gaps), default=None),
        "all_envelope_ok": all(g.envelope_ok for g in gaps),
        "all_count_two": all(g.count_below_sigma == 2 for g in gaps),
        "failures": failures,
    }
    with open(
        os.path.join(out_dir, "sweep_summary.json"), "w", encoding="utf-8"
    ) as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=float)
    return 0


def run_bounds(cfg: RunConfig, out_dir: str, cache: EnergyCache) -> int:
    model = build_model(cfg.params)
    consts = bnd.bound_constants(model)
    momenta = cfg.momenta()
    with open(
        os.path.join(out_dir, "bound_constants.json"), "w", encoding="utf-8"
    ) as fh:
        constants = {k: getattr(consts, k) for k in CONSTANT_NAMES}
        json.dump(constants, fh, indent=2, sort_keys=True, default=float)

    def work(P):
        solve = solve_fiber(P, model, cache)
        return (
            *_scaled_sandwich(solve),
            bnd.count_below(solve.eigenvalues, consts.sigma_minus(P)),
        )

    path = os.path.join(out_dir, "bounds.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            "P_x,P_y,P_z,sigma_minus,lower_envelope,upper_envelope,"
            "sandwich_lower,sandwich_upper,count_below\n"
        )
        for P, solved in zip(momenta, _each_momentum(momenta, work)):
            if isinstance(solved, dict):  # a failure: closed-form columns only
                solved = (None, None, None)
            vals = (
                *P,
                consts.sigma_minus(P),
                consts.lower_envelope(P),
                consts.upper_envelope(P),
                *solved,
            )
            fh.write(",".join(_fmt(v) for v in vals) + "\n")
    return 0


def run_convergence(cfg: RunConfig, out_dir: str) -> int:
    momenta = cfg.momenta()
    P = momenta[len(momenta) // 2]
    rows = convergence_study(P, cfg.small_params, cfg.convergence_ladder)
    with open(
        os.path.join(out_dir, "convergence.csv"), "w", encoding="utf-8"
    ) as fh:
        fh.write("N_max,n_shells,dim,E,diff_prev\n")
        for r in rows:
            fh.write(
                ",".join(
                    _fmt(r[c]) for c in ("N_max", "n_shells", "dim", "E", "diff_prev")
                )
                + "\n"
            )
    return 0


def run_verify_cmd(cfg: RunConfig, out_dir: str, cache: EnergyCache) -> int:
    """Run the suite and the Kramers certificates, and write
    ``verify_report.json``.  A check that an eigensolver failure stops is
    written as a failed hard entry after the checks already run, no
    certificate is attempted, and the failure is raised on to ``main``."""
    try:
        code, results = run_verify(cfg, cache=cache, printer=print)
    except VerifyStopped as stop:
        _write_verify_report(out_dir, 1, stop.results, [])
        raise
    model = build_model(cfg.params)
    certificates = [
        asdict(kramers_certificate(P, model, e_star=cfg.verify.e_star, cache=cache))
        for P in cfg.momenta()
    ]
    _write_verify_report(out_dir, code, results, certificates)
    print(f"verify: exit code {code}")
    return code


def _write_verify_report(out_dir: str, code: int, results, certificates) -> None:
    report = {
        "exit_code": code,
        "checks": [asdict(r) for r in results],
        "kramers_certificates": certificates,
    }
    with open(
        os.path.join(out_dir, "verify_report.json"), "w", encoding="utf-8"
    ) as fh:
        json.dump(_strict(report), fh, indent=2, sort_keys=True, default=float,
                  allow_nan=False)


def _strict(x):
    """``x`` with each float that is not finite as the string "nan", "inf"
    or "-inf": strict JSON (RFC 8259) has no NaN or Infinity."""
    if isinstance(x, dict):
        return {k: _strict(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_strict(v) for v in x]
    if isinstance(x, (float, np.floating)) and not np.isfinite(x):
        return str(float(x))
    return x


def _count(text: str) -> int:
    """A command-line integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pffiber",
        description="Spectral toolkit for the truncated fiber Hamiltonian "
        "of a semi-relativistic charge coupled to the quantized Maxwell field",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "sweep", "verify", "bounds", "convergence", "print-config"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", metavar="PATH", default=None)
        sp.add_argument("--out", metavar="DIR", default=None)
        sp.add_argument("--threads", metavar="N", type=_count, default=None)
        sp.add_argument("--seed", metavar="N", type=_count, default=None)
    return ap


@one_thread()
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else default_config()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command in ("convergence", "verify") and not cfg.momenta():
        # spectrum, sweep and bounds write empty tables for an empty ladder
        print(f"config error: {args.command} needs at least one momentum",
              file=sys.stderr)
        return 2
    if args.threads is not None:
        cfg = replace(cfg, threads=args.threads)
    if args.seed is not None:
        cfg = replace(cfg, verify=replace(cfg.verify, seed=args.seed))
    out_dir = args.out or cfg.out_dir
    if args.command == "print-config":
        print(dump_config(cfg))
        return 0
    try:  # an output folder that cannot be made stops the run before any solve
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"path error: {exc}", file=sys.stderr)
        return 2
    cache = EnergyCache()  # one run's energies and records, never saved
    try:
        if args.command == "spectrum":
            return run_spectrum(cfg, out_dir, cache)
        if args.command == "sweep":
            return run_sweep(cfg, out_dir, cache)
        if args.command == "bounds":
            return run_bounds(cfg, out_dir, cache)
        if args.command == "convergence":
            return run_convergence(cfg, out_dir)
        if args.command == "verify":
            return run_verify_cmd(cfg, out_dir, cache)
    except (EigensolverError, np.linalg.LinAlgError) as exc:
        # a failure outside the per-momentum records of spectrum, sweep and
        # bounds: convergence and verify stop at the first
        print(f"eigensolver error: {exc}", file=sys.stderr)
        return 1
    return 2  # pragma: no cover - argparse guards


if __name__ == "__main__":
    raise SystemExit(main())
