"""The split of a model into its grid and its coupling, and the grid's store
of symmetry set-ups, one per stabilizer."""

import collections
import dataclasses
import sys

import numpy as np
import pytest

from pffiber import cli, hamiltonian
from pffiber.hamiltonian import build_model
from pffiber.modes import build_mode_set, form_factors, grid_rotations

from oracles import build_H_blocks

GRID_FIELDS = ("modes", "basis", "pf", "hf", "rotations", "setups")
P_ALONG_X = np.array([0.9345368022869702, 0.0, 0.0])
P_MIRROR_Z = np.array([0.9345368022869702, -0.8, 0.0])


def test_couplings_on_one_truncation_share_the_grid(small_params):
    base = build_model(small_params)
    for change in ({"e": 0.3}, {"gamma": 0.9}, {"M": 2.0},
                   {"e": 0.0, "gamma": 1.0, "M": 0.5}):
        other = build_model(small_params.replace(**change))
        assert other is not base
        for name in GRID_FIELDS:
            assert getattr(other, name) is getattr(base, name)


def test_a_cached_model_keeps_its_grid_past_the_grid_cache(small_params):
    """64 other grids evict the model's entry from the grid cache; a sibling
    coupling built after that still finds the grid of the live model."""
    hamiltonian.build_model.cache_clear()
    hamiltonian._grid.cache_clear()
    base = build_model(small_params)
    size = hamiltonian._grid.cache_info().maxsize
    unit = small_params.replace(e=1.0, gamma=1.0, M=1.0, N_max=0)
    for n in range(size):
        hamiltonian._grid(unit.replace(Lambda=1.0 + (n + 1) / size))
    assert hamiltonian._grid.cache_info().currsize == size
    other = build_model(small_params.replace(e=0.3))
    assert other.basis is base.basis and other.setups is base.setups


@pytest.mark.parametrize(
    "name, value",
    [("n_shells", 2), ("n_dirs", 6), ("N_max", 1), ("Lambda", 1.5),
     ("k_min", 1e-3), ("m_ph", 0.4), ("envelope_width", 0.2)],
)
def test_each_grid_field_has_its_own_grid(small_params, name, value):
    assert getattr(small_params, name) != value
    other = build_model(small_params.replace(**{name: value}))
    base = build_model(small_params)
    assert other.basis is not base.basis and other.setups is not base.setups


@pytest.mark.parametrize("n_dirs", (2, 6, 8, 12))
def test_the_point_group_does_not_depend_on_the_coupling(default_params, n_dirs):
    """The grid takes G from the table at e = 1; it is the same array, in
    the same order, at every coupling."""
    for n_shells in (1, 2, 3):
        for width in (0.0, 0.3):
            p = default_params.replace(
                n_dirs=n_dirs, n_shells=n_shells, envelope_width=width, N_max=0
            )
            modes = build_mode_set(p)
            unit = grid_rotations(form_factors(modes, p.replace(e=1.0)))
            assert np.array_equal(build_model(p).rotations, unit)
            for e in (0.0, 0.05, 0.3, 2.0):
                got = grid_rotations(form_factors(modes, p.replace(e=e)))
                assert np.array_equal(got, unit)


def _counting(monkeypatch, counts, module, name):
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return fn, wrapper


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)


@pytest.mark.parametrize("P", [P_ALONG_X, P_MIRROR_Z], ids=["real", "mirror"])
def test_a_second_call_at_a_stabilizer_reuses_its_setup(default_params, monkeypatch, P):
    hamiltonian.build_model.cache_clear()
    hamiltonian._grid.cache_clear()
    model = build_model(default_params)
    build_H_blocks(P, model)
    counts = collections.Counter()
    for name in ("_fock_fourier_basis", "_real_structure", "mode_action"):
        _counting(monkeypatch, counts, hamiltonian, name)
    other = build_model(default_params.replace(e=0.3))
    cases = [(1.5 * P, model), (P, other), (0.5 * P, other)]
    stored = [build_H_blocks(Q, m) for Q, m in cases]
    assert not counts
    for (Q, m), blocks in zip(cases, stored):
        fresh = build_H_blocks(Q, dataclasses.replace(m, setups={}))
        assert len(blocks) == len(fresh)
        assert all(np.array_equal(a.h, b.h) for a, b in zip(blocks, fresh))
    # the store keeps index and coefficient arrays, O(n dim), no dense matrix
    for setup in model.setups.values():
        assert all(a.size <= 8 * model.dim for a in _arrays(setup))


def test_verify_builds_four_grids_and_eight_setups(tmp_path, monkeypatch):
    """A default verify builds 59 models on 4 grids, and builds the blocks
    of H(P) at 94 momenta on 8 stabilizers.  Momenta are built in the
    stacks of setup_stacks, those of the records and those of the ground
    energies (which builds the first block of every momentum, and a later
    one only where the certificate fails), so the momenta are counted, not
    the calls; certify_above takes setup_stacks inside pffiber.certificate
    and builds no block that it proves.

    The 94: the 11 sweep momenta at e = 0 (check 1) and at e = 0.05 and
    0.1 (check 4, 22); the Delta trials of check 8, whose sweep momenta are
    cache hits: of the 62 distinct P - k per coupling (one per stabilizer
    orbit, k != 0), the corollary bound keeps 8, 19 and 25 at e = 0, 0.05
    and 0.1, and the operator certificate rules out 0, 11 and 17 of those
    without building a block, 24 in all where 186 were built unpruned; the
    10 momenta -P at each coupling of check 11a (30), and 2, 3 and 2 for
    soft1, soft2 and inv6.

    The blocks rooted, one per momentum of a stacked root: the records root
    the head of each theta-pair of their momenta, 2 of the 4 C4 blocks of
    each of the 33 sweep records (66), and build no partner; the ground
    path roots the first block of its 61 momenta, and the diagonal tier of the certificate proves each of the 57 later
    theta-pair blocks that it meets above the running minimum, so none of
    those is rooted: 127 blocks, where 193 were when the records rooted
    every block, and 250 when the ground path solved the first block of
    every pair."""
    hamiltonian.build_model.cache_clear()
    hamiltonian._grid.cache_clear()
    hamiltonian._live_models.clear()  # models held elsewhere keep their grids
    counts = collections.Counter()
    for name in ("enumerate_basis", "_symmetry_setup"):
        _counting(monkeypatch, counts, hamiltonian, name)
    def stacks(original):
        def counted(P, *args, **kwargs):
            counts["momenta built"] += len(np.asarray(P, dtype=float).reshape(-1, 3))
            return original(P, *args, **kwargs)

        return counted

    def roots(original):
        def counted(s, M):
            if s.ndim == 3:  # a stack of blocks, not a dense oracle's s(P)
                counts["blocks rooted"] += len(s)
            return original(s, M)

        return counted

    for fn in ("kinetic_root", "_svd_root"):
        monkeypatch.setattr(hamiltonian, fn, roots(getattr(hamiltonian, fn)))
    original = hamiltonian.setup_stacks
    for name, mod in list(sys.modules.items()):
        if (name.startswith("pffiber.")
                and name not in ("pffiber.hamiltonian", "pffiber.certificate")
                and vars(mod).get("setup_stacks") is original):
            monkeypatch.setattr(mod, "setup_stacks", stacks(original))
    assert cli.main(["verify", "--seed", "2026", "--out", str(tmp_path)]) == 0
    assert hamiltonian.build_model.cache_info().misses == 59
    assert counts == {"enumerate_basis": 4, "_symmetry_setup": 8, "momenta built": 94,
                      "blocks rooted": 127}
