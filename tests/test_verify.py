"""Single verify checks run on their own, outside the acceptance suite."""

import dataclasses
import tracemalloc

from pffiber import verify as vf
from pffiber.config import default_config


def test_coupling_estimates_detail_at_the_default_config():
    result = vf.check_coupling_estimates(vf.VerifyContext(default_config()))
    assert result.passed
    assert result.detail == (
        "1000 draws x 8 inequalities, 0 violations beyond 1.0e-10 "
        "(worst excess -1.813e-01)"
    )


def test_coupling_estimates_hold_two_dense_operators():
    """a(f) and a(g) are scattered from the ladder table; no per-mode stack
    and no complex copy of them is made."""
    cfg = default_config()
    cfg = dataclasses.replace(
        cfg,
        small_params=cfg.small_params.replace(n_shells=2, n_dirs=6),
        verify=dataclasses.replace(cfg.verify, n_property_vectors=2),
    )
    ctx = vf.VerifyContext(cfg)
    dim = vf._property_basis(ctx)[2].dim
    assert dim == 2925  # 24 modes at N_max 3
    tracemalloc.start()
    try:
        result = vf.check_coupling_estimates(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak < 4 * dim * dim * 8
