"""Run configuration: a single JSON file drives every subcommand.

All defaults are embedded here and dumped by ``pffiber print-config``, so a
figure or table is reproducible from one file.  The desk-scale default is the
24-mode grid (2 radial shells x 6 antipodal directions x 2 polarizations) at
total photon number <= 1; ``small_params`` is a 4-mode, N_max = 2 companion
used by the heavier property suites.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .fock import MAX_BASIS_DIM, truncated_dim
from .modes import DIRECTION_COUNTS, ModelParams


class ConfigError(ValueError):
    """Raised for unreadable or inconsistent run configurations."""


# Peak resident memory of a run over the bytes of one dense complex H(P),
# 16 (2 dim)^2, rounded up.  Measured at Fock dim 1225 (n = 2450, 96 MB per
# H, 2-core x86-64 host): 500 MB, 5.2 H, for one solve at a momentum no
# symmetry fixes, whose one block is the size of H(P) and is built by the
# same ladder scatter as every block (546 MB when it was the dense
# build_H); 52.6 MB for the benchmark's convergence rung at P along x,
# whose symmetry blocks are built and solved one at a time.  The factor 8
# dates from a 750 MB spectrum run that also held the dense A(0) and B(0);
# it stays, since a generic P still solves one block of the full size.
DENSE_COPIES = 8

# Largest momentum list a run accepts (n_P, or the length of P_list).  Every
# momentum costs a solve of H(P) and its Delta(P) trials, so a longer list
# is a slip of the keyboard rather than a run to start.
MAX_MOMENTA = 10_000


def dense_storage_bytes(dim: int) -> int:
    """Estimated peak storage of a run at truncated Fock dimension ``dim``."""
    return DENSE_COPIES * 16 * (2 * dim) ** 2


def physical_memory() -> int:
    """Bytes of physical memory of this host."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@dataclass(frozen=True)
class VerifySettings:
    """Coupling ladder and randomized-draw settings of the verify suite."""

    e_values: tuple = (0.0, 0.05, 0.1)
    n_random_draws: int = 20
    n_sqrt_draws: int = 10
    n_property_vectors: int = 1000
    n_monotone_trials: int = 1000
    monotone_dim: int = 12
    e_star: float = 0.3
    e_max_random: float = 0.3
    seed: int = 2026


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    small_params: ModelParams
    P_max: float = 2.0
    n_P: int = 11
    P_list: tuple | None = None  # explicit momenta override the radial ladder
    verify: VerifySettings = field(default_factory=VerifySettings)
    convergence_ladder: tuple = ((0, 2), (1, 2), (2, 2))
    out_dir: str = "out"
    threads: int = 0  # accepted and validated; no longer selects anything

    def momenta(self) -> list:
        """The P sweep: explicit list, or a radial ladder along u = (1,0,0)."""
        if self.P_list is not None:
            return [np.asarray(p, dtype=float) for p in self.P_list]
        mags = np.linspace(0.0, self.P_max, self.n_P)
        return [np.array([m, 0.0, 0.0]) for m in mags]


def default_config() -> RunConfig:
    return RunConfig(
        params=ModelParams(
            e=0.1, gamma=0.5, M=1.0, m_ph=0.5, Lambda=1.0,
            n_shells=2, n_dirs=6, N_max=1,
        ),
        small_params=ModelParams(
            e=0.1, gamma=0.5, M=1.0, m_ph=0.5, Lambda=1.0,
            n_shells=1, n_dirs=2, N_max=2,
        ),
    )


def config_to_dict(cfg: RunConfig) -> dict:
    out = asdict(cfg)
    if out["P_list"] is not None:
        out["P_list"] = [list(p) for p in out["P_list"]]
    out["convergence_ladder"] = [list(r) for r in out["convergence_ladder"]]
    out["verify"]["e_values"] = list(out["verify"]["e_values"])
    return out


def _check_model(params: ModelParams, what: str) -> None:
    """Reject a grid, or a truncation that building the model would refuse
    or whose dense storage cannot fit in memory."""
    if params.n_dirs not in DIRECTION_COUNTS:
        raise ConfigError(
            f"{what}: unsupported n_dirs {params.n_dirs}; "
            f"choose one of {DIRECTION_COUNTS}"
        )
    # two polarization modes per (shell, direction) k-point
    dim = truncated_dim(2 * params.n_shells * params.n_dirs, params.N_max)
    if dim > MAX_BASIS_DIM:
        raise ConfigError(
            f"{what}: truncated Fock dimension {dim} exceeds the limit "
            f"{MAX_BASIS_DIM}"
        )
    need, have = dense_storage_bytes(dim), physical_memory()
    if need > have:
        raise ConfigError(
            f"{what}: truncated Fock dimension {dim} needs about "
            f"{need / 2**30:.1f} GiB of dense storage, more than the "
            f"{have / 2**30:.1f} GiB of physical memory"
        )


def _check_square(P: tuple, what: str) -> None:
    """Reject a momentum whose P^2 overflows: |P| and the cache key of P
    are read from it."""
    if not math.isfinite(sum(x * x for x in P)):
        raise ConfigError(f"{what}: |P|^2 overflows for {list(P)}")


def _parse_momentum(p) -> tuple:
    try:
        P = tuple(float(x) for x in p)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"P_list: invalid momentum {p!r}") from exc
    if len(P) != 3 or not all(np.isfinite(P)):
        raise ConfigError(f"P_list: a momentum has 3 finite components, got {p!r}")
    _check_square(P, "P_list")
    return P


def _number(value, what: str) -> float:
    """A finite real >= 0."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
        or value < 0
    ):
        raise ConfigError(f"{what} must be a finite number >= 0, got {value!r}")
    return float(value)


def _integer(value, what: str, low: int, high: int | None = None) -> int:
    """An integer in [low, high]."""
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < low
        or (high is not None and value > high)
    ):
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigError(f"{what} must be an integer {span}, got {value!r}")
    return value


def _verify_settings(raw: dict) -> VerifySettings:
    e_values = raw["e_values"]
    if not isinstance(e_values, list):
        raise ConfigError(f"verify.e_values must be a list, got {e_values!r}")
    counts = ("n_random_draws", "n_sqrt_draws", "n_property_vectors",
              "n_monotone_trials")
    return VerifySettings(
        **{
            **raw,
            **{k: _integer(raw[k], f"verify.{k}", 1) for k in counts},
            "e_values": tuple(_number(e, "verify.e_values entry") for e in e_values),
            "monotone_dim": _integer(raw["monotone_dim"], "verify.monotone_dim", 1, 32),
            "e_star": _number(raw["e_star"], "verify.e_star"),
            "e_max_random": _number(raw["e_max_random"], "verify.e_max_random"),
            "seed": _integer(raw["seed"], "verify.seed", 0),
        }
    )


def config_from_dict(data: dict) -> RunConfig:
    base = config_to_dict(default_config())
    unknown = set(data) - set(base)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = {**base, **data}
    for key in ("params", "small_params", "verify"):
        if key in data:
            if not isinstance(data[key], dict):
                raise ConfigError(f"'{key}' must be an object")
            sub = base[key].copy()
            bad = set(data[key]) - set(sub)
            if bad:
                raise ConfigError(f"unknown keys in '{key}': {sorted(bad)}")
            sub.update(data[key])
            merged[key] = sub
    try:
        params = ModelParams(**merged["params"])
        small = ModelParams(**merged["small_params"])
        rungs = []
        for n_max, n_shells in merged["convergence_ladder"]:
            rung = small.replace(N_max=n_max, n_shells=n_shells)
            rungs.append(((n_max, n_shells), rung))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from exc
    if not isinstance(merged["P_list"], (list, type(None))):
        raise ConfigError(f"P_list must be a list or null, got {merged['P_list']!r}")
    if merged["P_list"] is not None and len(merged["P_list"]) > MAX_MOMENTA:
        raise ConfigError(
            f"P_list holds {len(merged['P_list'])} momenta, more than the "
            f"limit {MAX_MOMENTA}"
        )
    if not isinstance(merged["out_dir"], str):
        raise ConfigError("out_dir must be a path")
    _check_model(params, "params")
    _check_model(small, "small_params")
    for spec, rung in rungs:
        _check_model(rung, f"convergence_ladder rung {list(spec)}")
    P_max = _number(merged["P_max"], "P_max")
    _check_square((P_max, 0.0, 0.0), "P_max")
    return RunConfig(
        params=params,
        small_params=small,
        P_max=P_max,
        n_P=_integer(merged["n_P"], "n_P", 0, MAX_MOMENTA),
        P_list=None
        if merged["P_list"] is None
        else tuple(_parse_momentum(p) for p in merged["P_list"]),
        verify=_verify_settings(merged["verify"]),
        convergence_ladder=tuple(spec for spec, _ in rungs),
        out_dir=merged["out_dir"],
        threads=_integer(merged["threads"], "threads", 0),
    )


def load_config(path: str) -> RunConfig:
    """Parse a JSON config file; errors carry line/column diagnostics."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return config_from_dict(data)


def dump_config(cfg: RunConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True)
