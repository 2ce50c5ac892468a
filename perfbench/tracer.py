"""Outside-in tracer for the pffiber benchmark.

The tracer changes no pffiber source.  It replaces the functions named in
``SPANNED`` and ``KERNELS`` by wrappers that record one span per call, and it
does so on every loaded ``pffiber`` module that binds the function: ``cli``,
``bounds`` and ``spectral`` hold their own references to ``build_H`` and
``ground_data`` through ``from .x import f``, so patching only the defining
module would miss most calls.  The dense linear-algebra entry points are
patched as attributes of ``numpy.linalg`` and ``scipy.linalg`` and record a
span only when the caller is a pffiber module.

A span is (id, name, start, end, parent id, thread).  Spans stay in memory
and are written once, by :meth:`Tracer.write_spans`, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple

import numpy as np

# pffiber functions traced as spans, named "<module>.<function>"
SPANNED = [
    ("pffiber.hamiltonian", "build_model"),
    ("pffiber.hamiltonian", "build_H"),
    ("pffiber.hamiltonian", "build_T"),
    ("pffiber.hamiltonian", "op_sqrt_eig"),
    ("pffiber.hamiltonian", "op_sqrt_quad"),
    ("pffiber.fock", "field_sum"),
    ("pffiber.fock", "enumerate_basis"),
    ("pffiber.spectral", "ground_data"),
    ("pffiber.spectral", "delta_gap"),
    ("pffiber.spectral", "low_spectrum"),
    ("pffiber.bounds", "sandwich_margins"),
    ("pffiber.bounds", "count_below"),
    ("pffiber.bounds", "theorem_gap_report"),
    ("pffiber.kramers", "kramers_certificate"),
    ("pffiber.kramers", "check_theta_commutes"),
    ("pffiber.cli", "compute_report"),
]

# dense kernels: (module, attribute, span name); numpy and scipy share names
KERNELS = [
    ("numpy.linalg", "eigh", "linalg.eigh"),
    ("scipy.linalg", "eigh", "linalg.eigh"),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh"),
    ("scipy.linalg", "eigvalsh", "linalg.eigvalsh"),
    ("numpy.linalg", "norm", "linalg.norm2"),
    ("numpy.linalg", "solve", "linalg.solve"),
]
KERNEL_NAMES = sorted({name for _, _, name in KERNELS})


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children[s.sid]):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = (s.end - s.start) - covered
    return out


def _short(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


def _norm_is_2(args, kwargs) -> bool:
    """Whether an ``np.linalg.norm`` call is a matrix 2-norm (an SVD)."""
    order = kwargs.get("ord", args[1] if len(args) > 1 else None)
    return order == 2 and np.ndim(args[0]) == 2


class Tracer:
    """Span recorder and patcher; one instance per traced run."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self.n3 = Counter()
        self.cache_hits = 0
        self.cache_misses = 0
        self.h_keys: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list = []
        self._model_hits0 = 0
        self._build_model = None

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append(
                Span(sid, name, start, end, parent, threading.get_ident())
            )

    def wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        return wrapper

    def _wrap_kernel(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if not caller.startswith("pffiber") or (
                name == "linalg.norm2" and not _norm_is_2(args, kwargs)
            ):
                return fn(*args, **kwargs)
            tracer.n3[name] += int(np.shape(args[0])[0]) ** 3
            return tracer.call(name, fn, args, kwargs)

        return wrapper

    def _wrap_build_H(self, fn):
        from pffiber.spectral import EnergyCache

        spanned = self.wrap(fn, "hamiltonian.build_H")
        tracer = self

        @functools.wraps(fn)
        def wrapper(P, params_or_model, *args, **kwargs):
            params = getattr(params_or_model, "params", params_or_model)
            tracer.h_keys.append(EnergyCache.key(params, P))
            return spanned(P, params_or_model, *args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        """Rebind ``original`` to ``wrapper`` on every loaded pffiber module."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "pffiber" or mod_name.startswith("pffiber.")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        """Patch every traced function; undone by :meth:`uninstall`."""
        import pffiber.cli  # noqa: F401  (loads every module that binds)
        from pffiber import spectral, verify

        for mod_name, attr in SPANNED:
            original = getattr(sys.modules[mod_name], attr)
            name = _short(mod_name, attr)
            if attr == "build_H":
                wrapper = self._wrap_build_H(original)
            else:
                wrapper = self.wrap(original, name)
            if attr == "build_model":
                self._build_model = original
                self._model_hits0 = original.cache_info().hits
                wrapper.cache_info = original.cache_info
                wrapper.cache_clear = original.cache_clear
            self._replace_everywhere(original, wrapper)

        for mod_name, attr, name in KERNELS:
            mod = importlib.import_module(mod_name)
            self._set(mod, attr, self._wrap_kernel(getattr(mod, attr), name))

        tracer = self
        cache_get, cache_put = spectral.EnergyCache.get, spectral.EnergyCache.put

        def get(cache, key):
            got = cache_get(cache, key)
            if got is not None:
                tracer.cache_hits += 1
            return got

        def put(cache, key, value):
            tracer.cache_misses += 1
            return cache_put(cache, key, value)

        self._set(spectral.EnergyCache, "get", get)
        self._set(spectral.EnergyCache, "put", put)

        checks = [
            (tag, self.wrap(fn, f"verify.check.{tag}"))
            for tag, fn in verify.ALL_CHECKS
        ]
        self._set(verify, "ALL_CHECKS", checks)

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reduction -----------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics; every traced name appears, called or not."""
        own = self_times(self.spans)
        calls = Counter(s.name for s in self.spans)
        busy = Counter()
        for s in self.spans:
            busy[s.name] += own[s.sid]
        out = {}
        for name in [_short(m, a) for m, a in SPANNED] + KERNEL_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = busy[name]
        from pffiber import verify

        for tag, _ in verify.ALL_CHECKS:  # each check runs once per verify
            out[f"verify.check.{tag}.self_s"] = busy[f"verify.check.{tag}"]
        for name in KERNEL_NAMES:
            out[f"{name}.n3"] = self.n3[name]
        n_h = len(self.h_keys)
        out["hamiltonian.build_H.distinct_ratio"] = (
            len(set(self.h_keys)) / n_h if n_h else 0.0
        )
        if self._build_model is not None:
            out["hamiltonian.build_model.cache_hits"] = (
                self._build_model.cache_info().hits - self._model_hits0
            )
        lookups = self.cache_hits + self.cache_misses
        out["spectral.energy_cache.hits"] = self.cache_hits
        out["spectral.energy_cache.misses"] = self.cache_misses
        out["spectral.energy_cache.hit_ratio"] = (
            self.cache_hits / lookups if lookups else 0.0
        )
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path: str) -> None:
        """One JSON line per span, in start order, tagged with the run id."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.sid):
                fh.write(json.dumps({"run": self.run_id, **s._asdict()}) + "\n")
