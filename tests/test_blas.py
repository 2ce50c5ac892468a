"""The BLAS thread policy: one thread per CLI command, the starting count
back for kernels of at least the work of a real ``blas.LIFT_N`` matrix, and
nothing where numpy's OpenBLAS cannot be found."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from pffiber import blas, bounds, cli, hamiltonian, spectral

pytestmark = pytest.mark.skipif(
    blas._openblas() is None, reason="numpy's BLAS is not an OpenBLAS found by name"
)


def _count():
    """The BLAS thread count of numpy's OpenBLAS."""
    return blas._openblas()[0]()


@pytest.fixture()
def two_threads():
    """The process at a starting count of 2, its own count restored after."""
    get, put = blas._openblas()
    before = get()
    put(2)
    yield
    put(before)


def _counting(monkeypatch, name, seen):
    """numpy.linalg.<name>, recording the BLAS count of each call."""
    real = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        seen.append(_count())
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)


@pytest.mark.parametrize("outcome", [0, 1, 2, "raises"])
def test_main_runs_on_one_thread_and_restores_the_count(two_threads, monkeypatch,
                                                        tmp_path, outcome):
    seen = []

    def command(cfg, out_dir, cache):
        seen.append(_count())
        if outcome == "raises":
            raise RuntimeError("stopped")
        return outcome

    monkeypatch.setattr(cli, "run_sweep", command)
    argv = ["sweep", "--out", str(tmp_path)]
    if outcome == "raises":
        with pytest.raises(RuntimeError):
            cli.main(argv)
    else:
        assert cli.main(argv) == outcome
    assert seen == [1]
    assert _count() == 2


def test_a_usage_error_restores_the_count(two_threads, capsys):
    with pytest.raises(SystemExit):
        cli.main(["sweep", "--no-such-flag"])
    assert cli.main(["verify", "--config", "/no/such/config.json"]) == 2
    assert _count() == 2


def _matrix(n, dtype=float, stack=()):
    """An n x n matrix, or a stack of them, that holds no memory."""
    return np.broadcast_to(np.zeros(1, dtype), (*stack, n, n))


def test_threads_lifts_at_and_above_the_constant(two_threads):
    """A real n x n kernel lifts from n = LIFT_N = 1000, and a complex one
    from n = 630, where 4 n^3 first reaches 1000^3; a stack lifts as each
    of its matrices does."""
    assert blas.LIFT_N == 1000
    cases = [(_matrix(1), 1), (_matrix(999), 1), (_matrix(1000), 2), (_matrix(10**4), 2),
             (_matrix(999, stack=(50,)), 1), (_matrix(1000, stack=(2,)), 2),
             (_matrix(629, complex), 1), (_matrix(630, complex), 2)]
    with blas.one_thread():
        for a, expected in cases:
            with blas.threads(a):
                assert _count() == expected
            assert _count() == 1
        with blas.threads(_matrix(1000)), blas.threads(_matrix(1000)):
            assert _count() == 2
        assert _count() == 1
    assert _count() == 2


def test_threads_never_exceeds_the_starting_count():
    """Started on one thread, a command stays on one; outside a command the
    count is left as it is."""
    get, put = blas._openblas()
    before = get()
    put(1)
    try:
        with blas.one_thread(), blas.threads(_matrix(10**4)):
            assert _count() == 1
        with blas.threads(_matrix(10**4)):
            assert _count() == 1
    finally:
        put(before)


@pytest.fixture()
def no_openblas(monkeypatch):
    """numpy's OpenBLAS under symbol names that the helper does not know;
    yields its real (get, set)."""
    real = blas._openblas()
    monkeypatch.setattr(blas, "_SYMBOLS", (("no_such_get", "no_such_set"),))
    blas._openblas.cache_clear()
    yield real
    blas._openblas.cache_clear()


def test_the_helper_is_a_no_op_without_the_symbols(two_threads, no_openblas, monkeypatch,
                                                   tmp_path):
    get, _ = no_openblas
    assert blas._openblas() is None
    with blas.one_thread(), blas.threads(_matrix(10**4)):
        assert get() == 2
    monkeypatch.setattr(cli, "run_sweep", lambda *args: get())
    assert cli.main(["sweep", "--out", str(tmp_path)]) == 2
    assert get() == 2


def _symmetric(n):
    a = np.random.default_rng(n).standard_normal((n, n))
    return a + a.T


# each site that hands a block or a 2 dim matrix to LAPACK, with the
# numpy.linalg function it calls
SITES = {
    "spectral._eigh": ("eigh", spectral._eigh),
    "spectral._eigvalsh": ("eigvalsh", spectral._eigvalsh),
    "kinetic_root": ("eigh", lambda a: hamiltonian.kinetic_root(a, 1.0)),
    "_svd_root": ("svd", lambda a: hamiltonian._svd_root(a, 1.0)),
    "op_sqrt_eig": ("eigh", lambda a: hamiltonian.op_sqrt_eig(a @ a)),
    "op_sqrt_quad": ("solve", lambda a: hamiltonian.op_sqrt_quad(a @ a + np.eye(len(a)))),
    "block_margins": ("eigvalsh", lambda a: bounds.block_margins(
        a[None], np.arange(len(a)), np.zeros((1, len(a))), np.zeros((1, len(a))))),
}


@pytest.mark.parametrize("site", SITES)
def test_each_dense_kernel_site_lifts_from_the_constant(two_threads, monkeypatch, site):
    """With the constant at 8, a real 8 x 8 kernel runs on the starting
    count and a 7 x 7 one on one thread."""
    name, run = SITES[site]
    monkeypatch.setattr(blas, "LIFT_N", 8)
    seen = []
    _counting(monkeypatch, name, seen)
    with blas.one_thread():
        run(_symmetric(7))
        below = set(seen)
        seen.clear()
        run(_symmetric(8))
    assert below == {1} and set(seen) == {2}


def test_lipschitz_ratio_lifts_at_twice_the_fock_dimension(two_threads, monkeypatch,
                                                           small_model):
    """H(P) is complex: with the constant at 2 dim, its 2 dim x 2 dim
    resolvent does the work of a real matrix of 3.2 dim."""
    monkeypatch.setattr(blas, "LIFT_N", 2 * small_model.dim)
    seen = []
    _counting(monkeypatch, "inv", seen)
    with blas.one_thread():
        hamiltonian.lipschitz_ratio(np.zeros(3), np.array([0.1, 0.0, 0.0]), small_model)
    assert seen == [2]


SRC = os.path.dirname(os.path.dirname(cli.__file__))
# the CLI in a process that imports numpy before pffiber, as pytest or a
# program that embeds pffiber does: its OpenBLAS starts on every thread
NUMPY_FIRST = "import numpy, runpy; runpy.run_module('pffiber.cli', run_name='__main__')"


@pytest.mark.parametrize("config", [
    {},  # the desk config: blocks of n <= 50
    # a mid momentum, blocks of n = 161-164 and 325: at two BLAS threads
    # throughout, its sweep.csv differed from one thread's in the last digits
    {"params": {"N_max": 2}, "P_list": [[0.35786962735087235, 0.0, 0.0]]},
], ids=["desk", "mid"])
def test_the_sweep_does_not_depend_on_the_blas_thread_count(tmp_path, config):
    """Every kernel of these sweeps is below the constant, so the CLI runs
    it on one thread whatever the process started with: pffiber started
    OpenBLAS on one thread, or numpy started it on two and
    :func:`blas.one_thread` holds it to one."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = {}
    for name, count, start in (("1", "1", ["-m", "pffiber.cli"]),
                               ("2", "2", ["-m", "pffiber.cli"]),
                               ("2 numpy first", "2", ["-c", NUMPY_FIRST])):
        env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": count}
        subprocess.run(
            [sys.executable, *start, "sweep", "--config", str(path),
             "--out", str(tmp_path / name)],
            env=env, capture_output=True, timeout=300, check=True,
        )
        out[name] = (tmp_path / name / "sweep.csv").read_bytes()
    assert out["1"] == out["2"] == out["2 numpy first"]
    assert len(out["1"].splitlines()) > 1


COUNT_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh(code, **counts):
    """Run ``code`` in a new process whose OpenBLAS variables are ``counts``
    alone, and return what it prints, read as JSON."""
    env = {k: v for k, v in os.environ.items() if k not in COUNT_VARS}
    env.update(counts, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout)


def test_a_pffiber_process_starts_on_one_thread_and_keeps_its_environment():
    """Loaded by pffiber, numpy's OpenBLAS creates no worker thread, and the
    environment is the one the process started with."""
    code = """if True:
        import json, os
        before = dict(os.environ)
        import pffiber.cli
        from pffiber import blas
        print(json.dumps([len(os.listdir("/proc/self/task")), blas._openblas()[0](),
                          dict(os.environ) == before]))"""
    assert _fresh(code, OPENBLAS_NUM_THREADS="2") == [1, 1, True]
    assert _fresh(code) == [1, 1, True]


CORES = len(os.sched_getaffinity(0))


def test_without_proc_pffiber_leaves_the_start_to_numpy():
    """Where the count could not be set later (no ``/proc/self/maps``),
    OpenBLAS starts on the count it reads itself, and nothing lifts."""
    code = """if True:
        import json, os
        exists = os.path.exists
        os.path.exists = lambda path: path != "/proc/self/maps" and exists(path)
        import pffiber
        os.path.exists = exists
        print(json.dumps([len(os.listdir("/proc/self/task")), pffiber.blas._ceiling]))"""
    assert _fresh(code, OPENBLAS_NUM_THREADS="2") == [min(2, CORES), 0]


@pytest.mark.parametrize("counts", [
    {}, {"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"},
    {"OPENBLAS_NUM_THREADS": "3"}, {"OMP_NUM_THREADS": "1"}, {"GOTO_NUM_THREADS": "1"},
    {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "0"},
], ids=lambda counts: " ".join(f"{k}={v}" for k, v in counts.items()) or "unset")
def test_the_ceiling_is_the_count_numpy_would_start_with(counts):
    if any(int(v) > CORES + 1 for v in counts.values()):
        pytest.skip("more threads than the host has cores, and one")
    ceiling = _fresh("import json, pffiber; print(json.dumps(pffiber.blas._ceiling))",
                     **counts)
    started = _fresh("import json, numpy; from pffiber import blas; "
                     "print(json.dumps(blas._openblas()[0]()))", **counts)
    assert ceiling == started


@pytest.mark.skipif(CORES < 2, reason="one core: nothing lifts")
def test_a_kernel_lifts_to_the_ceiling_from_a_one_thread_start():
    """A process started on one thread lifts a kernel at the constant to the
    count it asked for, within a command and in a direct library call, and
    goes back to one thread after each; with no OpenBLAS found, nothing
    lifts."""
    code = """if True:
        import json, tempfile
        import pffiber.cli as cli
        import numpy as np
        from pffiber import blas, spectral
        get = blas._openblas()[0]
        blas.LIFT_N = 8
        seen, eigh = [], np.linalg.eigh

        def counted(*args, **kwargs):
            seen.append(get())
            return eigh(*args, **kwargs)

        def sweep(cfg, out_dir, cache):
            spectral._eigh(np.eye(8))
            return 0

        np.linalg.eigh, cli.run_sweep = counted, sweep
        spectral._eigh(np.eye(8))
        with tempfile.TemporaryDirectory() as out:
            exit_code = cli.main(["sweep", "--out", out])
        spectral._eigh(np.eye(7))
        blas._SYMBOLS = ()
        blas._openblas.cache_clear()
        spectral._eigh(np.eye(8))
        print(json.dumps([seen, get(), exit_code]))"""
    assert _fresh(code, OPENBLAS_NUM_THREADS="2") == [[2, 2, 1, 1], 1, 0]
