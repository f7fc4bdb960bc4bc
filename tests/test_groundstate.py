import ast
import hashlib
import importlib
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
import types
from array import array
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

import excite_iter
from excite_iter import _kernels_py, groundstate, kernels
from excite_iter.errors import NoEigenvalueError, WrongParityError
from excite_iter.groundstate import (Grid, GroundState, default_bracket,
                                     default_x_max, save_groundstate,
                                     solve_groundstate_numeric,
                                     soluble_groundstate, write_csv)
from excite_iter.potential import DeltaBox, Quartic
from wells import dense_eigenvalues


# ---------------------------------------------------------------- grid

def test_grid_basics():
    grid = Grid(4.0, 16001)
    assert grid.h == pytest.approx(2.5e-4, rel=1e-15)
    x = grid.nodes()
    assert x[0] == 0.0 and x[-1] == 4.0
    assert grid.index_of(1.0) == 4000
    with pytest.raises(ValueError):
        grid.index_of(1.0 + 0.3 * grid.h)


@pytest.mark.parametrize("n", [3, 5, 2001, 4001, 16001, 64001])
def test_nodes_are_linspace_byte_for_byte(n):
    # at x_max = 3.99, (n - 1) * h is not x_max: the last node is set apart
    for x_max in (1.0, 3.99, *groundstate._EDGE_LADDER):
        assert (Grid(x_max, n).nodes().tobytes()
                == np.linspace(0.0, x_max, n).tobytes()), x_max


@pytest.mark.parametrize("x_max,n", [(0.0, 11), (1.0, 10), (1.0, 1)])
def test_grid_validation(x_max, n):
    with pytest.raises(ValueError):
        Grid(x_max, n)


# ------------------------------------------------------- soluble case

def test_soluble_groundstate_values():
    delta = 0.1
    gs = soluble_groundstate(delta, Grid(1.0, 2001))
    p = math.pi - delta
    # e^{-S}(0) = sin p = sin delta
    assert math.exp(-gs.s[0]) == pytest.approx(math.sin(delta), rel=1e-12)
    assert gs.e_gd == pytest.approx(0.5 * p * p, rel=1e-15)
    # hard wall: S = S' = +inf on the wall node, excluded from support
    assert gs.s[-1] == gs.s_prime[-1] == np.inf
    # interior nodelessness
    assert np.all(np.exp(-np.asarray(gs.s[:-1])) > 0)


def test_soluble_groundstate_small_delta_limit():
    gs = soluble_groundstate(1e-6, Grid(1.0, 201))
    assert gs.e_gd == pytest.approx(math.pi ** 2 / 2, rel=1e-5)


def test_soluble_groundstate_rejects_wrong_domain():
    with pytest.raises(ValueError):
        soluble_groundstate(0.1, Grid(2.0, 201))


# ------------------------------------------------------- quartic solver

@pytest.fixture(scope="module")
def gs_g3():
    return solve_groundstate_numeric(Quartic(3.0), Grid(4.0, 16001))


def test_quartic_energy_against_dense_oracle(gs_g3):
    # same grid spacing as the production run
    oracle = dense_eigenvalues(3.0, 4.0, 16001, k=1)[0]
    assert gs_g3.e_gd == pytest.approx(oracle, abs=1e-6)


def test_quartic_g8_energy():
    gs = solve_groundstate_numeric(Quartic(8.0), Grid(2.9, 16001))
    oracle = dense_eigenvalues(8.0, 2.9, 16001, k=1)[0]
    assert gs.e_gd == pytest.approx(oracle, abs=1e-6)


def test_gauge_and_parity_conventions(gs_g3):
    assert gs_g3.s[0] == 0.0          # psi(0) = 1 gauge
    assert gs_g3.s_prime[0] == 0.0    # even state
    assert np.isfinite(gs_g3.s[-1])   # no hard wall


def test_quartic_nodelessness(gs_g3):
    with np.errstate(under="ignore"):
        psi = np.exp(-np.asarray(gs_g3.s))
    assert np.min(psi[:-1]) > 0


def test_schroedinger_residual(gs_g3):
    # 7-point second derivative, O(h^6): the probe error stays below the
    # 1e-8 budget so the measured residual reflects the solution itself
    s = np.asarray(gs_g3.s)
    h = gs_g3.grid.h
    x = np.asarray(gs_g3.grid.nodes())
    with np.errstate(under="ignore"):
        psi = np.exp(-s)
    d2 = (2 * psi[:-6] - 27 * psi[1:-5] + 270 * psi[2:-4] - 490 * psi[3:-3]
          + 270 * psi[4:-2] - 27 * psi[5:-1] + 2 * psi[6:]) / (180 * h * h)
    v = 0.5 * 9.0 * (x * x - 1.0) ** 2
    r = -0.5 * d2 + (v[3:-3] - gs_g3.e_gd) * psi[3:-3]
    assert np.linalg.norm(r) <= 1e-8 * np.linalg.norm(psi)


def test_sprime_is_integrated_not_differenced(gs_g3):
    # S' must satisfy the Riccati identity S'' = S'^2 - 2(V - E) to much
    # better accuracy than a finite difference of S would give
    h = gs_g3.grid.h
    x = np.asarray(gs_g3.grid.nodes())
    sp = np.asarray(gs_g3.s_prime)
    d_sp = (sp[2:] - sp[:-2]) / (2 * h)
    v = 0.5 * 9.0 * (x * x - 1.0) ** 2
    rhs = sp[1:-1] ** 2 - 2 * (v[1:-1] - gs_g3.e_gd)
    # central-difference probe itself is O(h^2); just require consistency
    assert np.max(np.abs(d_sp - rhs)) < 1e-4 * max(1.0, np.max(np.abs(rhs)))


def test_solver_rejects_empty_bracket(monkeypatch):
    monkeypatch.setattr(groundstate, "default_bracket", lambda g: (8.0, 9.0))
    with pytest.raises(NoEigenvalueError):
        solve_groundstate_numeric(Quartic(3.0), Grid(4.0, 2001))


def test_solver_detects_wrong_parity(monkeypatch):
    # bracket isolating the second even level (~6.2956 at g=3): the
    # converged wave function has a node
    monkeypatch.setattr(groundstate, "default_bracket", lambda g: (6.0, 6.6))
    with pytest.raises((WrongParityError, NoEigenvalueError)):
        solve_groundstate_numeric(Quartic(3.0), Grid(4.0, 4001))


def test_solver_rejects_delta_box():
    with pytest.raises(TypeError):
        solve_groundstate_numeric(DeltaBox(0.1), Grid(1.0, 2001))


def test_solver_rejects_fewer_than_5_nodes_before_it_shoots(monkeypatch):
    # a 3-node grid is named as such, not as a match node off the grid
    def shoot(*args, **kwargs):
        raise AssertionError("the bracket was searched")

    monkeypatch.setattr(kernels, "shoot", shoot)
    with pytest.raises(ValueError,
                       match="needs at least 5 nodes, got 3$"):
        solve_groundstate_numeric(Quartic(3.0), Grid(4.0, 3))
    monkeypatch.undo()
    with pytest.raises(NoEigenvalueError, match="on 5 nodes"):
        solve_groundstate_numeric(Quartic(3.0), Grid(4.0, 5))


# ------------------------------------------------------- root finder

def _scipy_brent(f, lo, hi, f_lo, f_hi, xtol, rtol):
    """The root finder the solver used before _brent: SciPy's brentq,
    which evaluates f at both ends itself."""
    return brentq(f, lo, hi, xtol=xtol, rtol=rtol)


@pytest.mark.parametrize("g", [1.0, 3.0, 8.0])
def test_brent_matches_scipy_on_the_shooting_mismatch(monkeypatch, g):
    brent = groundstate._brent
    calls = []

    def both(f, lo, hi, f_lo, f_hi, xtol, rtol):
        ours = brent(f, lo, hi, f_lo, f_hi, xtol, rtol)
        calls.append((ours, _scipy_brent(f, lo, hi, f_lo, f_hi, xtol, rtol)))
        return ours

    monkeypatch.setattr(groundstate, "_brent", both)
    solve_groundstate_numeric(Quartic(g), Grid(default_x_max(g), 2001))
    assert len(calls) == 1
    ours, theirs = calls[0]
    assert ours == theirs


@pytest.mark.parametrize("f,lo,hi", [
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.exp(x) - 1e3, -5.0, 20.0),
    (lambda x: (x - 1.0) ** 3, 0.0, 1.0),      # root at the bracket end
])
def test_brent_matches_scipy_on_analytic_functions(f, lo, hi):
    xtol, rtol = 2e-12, 4 * np.finfo(float).eps
    ours = groundstate._brent(f, lo, hi, f(lo), f(hi), xtol, rtol)
    assert ours == brentq(f, lo, hi, xtol=xtol, rtol=rtol)


def test_brent_raises_when_it_does_not_converge():
    # a step has no zero, and with rtol=0 the tolerance is far below one
    # ulp of the jump at 0.3, so the bracket can never shrink enough and
    # the iteration limit is reached
    def step(x):
        return -1.0 if x < 0.3 else 1.0

    with pytest.raises(NoEigenvalueError,
                       match="did not converge in 100 iterations"):
        groundstate._brent(step, 0.0, 1.0, step(0.0), step(1.0), 1e-300, 0.0)


def _count_sweeps(monkeypatch, root_finder):
    """Sweep pairs (kernels.shoot calls) of one quartic g=3 solve with the
    given root finder, and the ground-state energy it found."""
    count = [0]
    shoot = kernels.shoot

    def counted(*args):
        count[0] += 1
        return shoot(*args)

    monkeypatch.setattr(kernels, "shoot", counted)
    monkeypatch.setattr(groundstate, "_brent", root_finder)
    e_gd = solve_groundstate_numeric(Quartic(3.0), Grid(4.0, 2001)).e_gd
    monkeypatch.undo()
    return count[0], e_gd


def test_known_bracket_ends_save_two_sweep_pairs(monkeypatch):
    # the solver hands its sign-check values f(lo), f(hi) to the root
    # finder, so neither end is integrated again
    before, e_before = _count_sweeps(monkeypatch, _scipy_brent)
    after, e_after = _count_sweeps(monkeypatch, groundstate._brent)
    assert after == before - 2
    assert e_after == e_before


def _cli_runs_in_a_fresh_process(tmp_path, **env):
    """Full quartic and soluble CLI runs in a fresh process with env added
    to the environment: (their exit codes, its kernel backend, the
    modules it has loaded)."""
    code = ("import json, sys\n"
            "import excite_iter.cli\n"
            "codes = [excite_iter.cli.main([*case, '--out', sys.argv[1]])\n"
            "         for case in (['quartic', '--g', '3'],\n"
            "                      ['soluble', '--delta', '0.1'])]\n"
            "print(json.dumps([codes, excite_iter.cli.kernels.BACKEND,\n"
            "                  sorted(sys.modules)]))\n")
    src = os.path.dirname(os.path.dirname(excite_iter.__file__))
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_run_imports_no_scipy(tmp_path):
    # nor NumPy: full quartic and soluble runs load neither
    codes, _, modules = _cli_runs_in_a_fresh_process(tmp_path)
    assert codes == [0, 0]
    assert [m for m in modules if m.split(".")[0] in ("scipy", "numpy")] \
        == []


@pytest.mark.parametrize("unwritable_cache", [False, True],
                         ids=["active-backend", "python-fallback"])
def test_cli_run_imports_only_the_code_it_runs(tmp_path, unwritable_cache):
    """Full quartic and soluble runs load no reflection machinery, and the
    Python kernels only when they are the backend."""
    env = {}
    if unwritable_cache:
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        env["XDG_CACHE_HOME"] = str(blocker)
    codes, backend, modules = _cli_runs_in_a_fresh_process(tmp_path, **env)
    assert codes == [0, 0]
    assert [m for m in ("dataclasses", "inspect", "ast", "dis", "tokenize",
                        "excite_iter._kernels_py") if m in modules] \
        == {"cython": [], "python": ["excite_iter._kernels_py"]}[backend]
    if unwritable_cache:
        assert backend == "python"


def test_no_module_of_the_package_imports_numpy():
    """Nor anything else outside the standard library: the package has
    no runtime dependency."""
    package = os.path.dirname(os.path.abspath(excite_iter.__file__))
    imports = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as f:
            tree = ast.parse(f.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imports += [(name, a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imports.append((name, node.module))
    assert len(imports) > 10
    assert [(name, module) for name, module in imports
            if module.split(".")[0] not in sys.stdlib_module_names] == []


PUBLIC_NAMES = {
    "errors": ("DegenerateAnchorError", "ExciteIterError",
               "NoEigenvalueError", "WrongParityError"),
    "excite": ("ConvergenceReport", "IterationState", "TrialFunction",
               "iterate_once", "orthogonality_residual", "run"),
    "groundstate": ("Grid", "GroundState", "default_bracket",
                    "default_x_max", "save_groundstate",
                    "solve_groundstate_numeric", "soluble_groundstate"),
    "potential": ("DeltaBox", "Potential", "Quartic", "eval_quartic"),
}


def test_package_binds_the_public_names_of_its_submodules():
    """excite_iter's names are its submodules' objects, bound on import:
    the package module defines no function of its own."""
    assert excite_iter.__all__ == sorted(
        name for names in PUBLIC_NAMES.values() for name in names)
    for module, names in PUBLIC_NAMES.items():
        defined = vars(importlib.import_module(f"excite_iter.{module}"))
        for name in names:
            assert vars(excite_iter)[name] is defined[name], name
    with open(excite_iter.__file__) as f:
        tree = ast.parse(f.read())
    assert not [node for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.Lambda))]


def _can_build_kernel():
    """A C compiler and the interpreter's Python.h: all that building the
    compiled kernel on first import needs."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    include = sysconfig.get_paths()["include"]
    return bool(cc) and shutil.which(cc[0]) is not None \
        and os.path.isfile(os.path.join(include, "Python.h"))


# (x_start, h, n_steps, g, e, s_init, sp_init): outward and inward sweeps
# of the quartic g=3 that stay regular or blow up at a node
_SWEEPS = [(0.0, 0.002, 1500, 3.0, 2.7, 0.0, 0.0),       # node at 783
           (0.0, 0.002, 2000, 3.0, 7.5, 0.0, 0.0),       # node at 302
           (0.0, 0.002, 1000, 3.0, 2.48, 0.0, 0.0),      # regular
           (4.0, -0.002, 1200, 3.0, 2.7, 0.0, 3.0),      # regular
           (4.0, -0.00025, 16000, 3.0, 0.3, 0.0, -50.0),  # node at 131
           (0.0, 0.002, 0, 3.0, 1.0, 1.0, 2.0)]          # no step


@pytest.mark.skipif(not _can_build_kernel(), reason="no C compiler")
def test_backends_agree_exactly(monkeypatch):
    grid = Grid(4.0, 2001)
    solved = []
    for name in ("python", "cython"):
        monkeypatch.setattr(kernels, "shoot",
                            kernels.get_backend(name).shoot)
        solved.append(solve_groundstate_numeric(Quartic(3.0), grid))
    a, b = solved
    assert a.e_gd == b.e_gd
    assert np.array_equal(a.s, b.s)
    assert np.array_equal(a.s_prime, b.s_prime)
    nodes = []
    for args in _SWEEPS:
        s_c, sp_c, node_c = kernels.get_backend("cython").riccati_sweep(*args)
        s_p, sp_p, node_p = kernels.get_backend("python").riccati_sweep(*args)
        assert node_c == node_p
        assert np.array_equal(s_c, s_p, equal_nan=True)
        assert np.array_equal(sp_c, sp_p, equal_nan=True)
        if node_c >= 0:
            # a blow-up leaves a NaN tail after the node, and only there
            assert np.isnan(s_c[node_c + 1:]).all()
            assert np.isnan(sp_c[node_c + 1:]).all()
            assert not np.isnan(sp_c[:node_c + 1]).any()
        nodes.append(node_c)
    assert nodes == [783, 302, -1, -1, 131, -1]


# (n, m, e, sp_end) of shoot at g=3, x_max=4: a sweep blows up, the
# inward sweep is the shorter one, or both stay regular; a sweep of no
# step leaves node m to the other
_SHOTS = {"outward-blow-up": (2001, 1500, 2.7, 3.0),
          "inward-blow-up": (16001, 4, 0.3, -50.0),
          "inward-shorter": (2001, 1996, 2.48, 3.0),
          "regular": (2001, 650, 2.48, 3.0),
          "no-outward-step": (2001, 0, 2.48, 3.0),
          "no-inward-step": (2001, 2000, 2.48, 3.0)}


@pytest.mark.skipif(not _can_build_kernel(), reason="no C compiler")
@pytest.mark.parametrize("case", _SHOTS)
def test_backends_agree_on_shoot(case):
    """Bit for bit, with and without the profile: the returned blow-up
    flag and S' ends, and S and S', all NaN after a blow-up."""
    n, m, e, sp_end = _SHOTS[case]
    ends, profiles = set(), set()
    for name in ("python", "cython"):
        shoot = kernels.get_backend(name).shoot
        s, sp = kernels.zeros(n), kernels.zeros(n)
        for out in ((), (s, sp)):
            got = shoot(4.0, 4.0 / (n - 1), n, m, 3.0, e, sp_end, *out)
            ends.add(array("d", got).tobytes())
        profiles.add(s.tobytes() + sp.tobytes())
        assert np.isnan(s).all() == np.isnan(sp).all() == got[0] \
            == case.endswith("blow-up")
    assert len(ends) == len(profiles) == 1


@pytest.mark.parametrize("backend", ["python", "cython"])
@pytest.mark.parametrize("m", [-1, 5])
def test_shoot_rejects_a_match_node_off_the_grid(backend, m):
    try:
        shoot = kernels.get_backend(backend).shoot
    except ImportError as exc:
        pytest.skip(str(exc))
    with pytest.raises(ValueError, match="need 0 <= m < n"):
        shoot(4.0, 1.0, 5, m, 3.0, 2.5, 3.0)


# sha256 of e_gd.hex(), then the bytes of S and of S', of the ground
# states that the parent of the shooting kernel built: every byte is kept
_PINNED_GROUNDSTATES = {
    ("quartic", 0.7, 2001):
        "a201e4e019779f22d78c78ccb074514f076e32924305203ff19d6885ce2d7434",
    ("quartic", 0.7, 4001):
        "d6a280ab88b9912f2f34b44e02a1db2a27f1501f3ac0a6a0edd748d4d528bdbf",
    ("quartic", 3.0, 2001):
        "03fcddfe1fb2da7b1f1cc49e6578d2e6a4c3da6fa7482cb4530307d2aa7c0709",
    ("quartic", 3.0, 4001):
        "84841c4c2adae1620f1b43e974360d2bc05b4851735949069a1cc8569b9993ab",
    ("quartic", 8.0, 2001):
        "0b0f72153fea95b9afe73d55d43e6e490bb99c8052a9f04a197f4cddb9bd0e4d",
    ("quartic", 8.0, 4001):
        "917045aecc41a1714fcfe19568a3d8c988a48d4653be2ed71210532abc72f4cd",
    ("quartic", 12.0, 2001):
        "e7bafd4f672108a3e632e13c77dd8237b247dfe5809473abab74f7457740f413",
    ("quartic", 12.0, 4001):
        "d73d3aa848eb304ea2dd28a2772d871abc434ad5630b5b7a9bdc9383cd069f66",
    ("soluble", 0.05, 4001):
        "5afb9cec638ac7e31647109e4318b400fd23b0dc59a9e9a3126bdce5c95c6a16",
    ("soluble", 0.1, 4001):
        "b810f9c09be35cdb6be1c53ec247ecc2b25bf34121148d643e6630453e71ce1c",
    ("soluble", 1.5, 4001):
        "6e57aa7b588b1de745ea5f4d89fa0ed90205c33028bde3bfd570ef682d13541a",
}


@pytest.mark.parametrize("backend", ["python", "cython"])
def test_groundstate_bytes_are_pinned(monkeypatch, backend):
    try:
        chosen = kernels.get_backend(backend)
    except ImportError as exc:
        pytest.skip(str(exc))
    monkeypatch.setattr(kernels, "shoot", chosen.shoot)
    monkeypatch.setattr(kernels, "soluble_profile", chosen.soluble_profile)
    digests = {}
    for case, param, n in _PINNED_GROUNDSTATES:
        gs = (soluble_groundstate(param, Grid(1.0, n)) if case == "soluble"
              else solve_groundstate_numeric(
                  Quartic(param), Grid(default_x_max(param), n)))
        digest = hashlib.sha256(gs.e_gd.hex().encode())
        digest.update(gs.s.tobytes())
        digest.update(gs.s_prime.tobytes())
        digests[case, param, n] = digest.hexdigest()
    assert digests == _PINNED_GROUNDSTATES


@pytest.mark.parametrize("backend", ["python", "cython"])
def test_negative_step_count_is_rejected(backend):
    try:
        sweep = kernels.get_backend(backend).riccati_sweep
    except ImportError as exc:
        pytest.skip(str(exc))
    with pytest.raises(ValueError, match="n_steps must be >= 0"):
        sweep(0.0, 0.01, -1, 3.0, 2.5, 0.0, 0.0)


def test_backends_and_the_c_source_name_the_same_kernels():
    # so that deleting a kernel leaves no twin, binding or dead C function
    # behind: the Python kernels are the public functions of _kernels_py
    # but simpson_integral, weighted_simpson's helper
    python = {name for name, f in vars(_kernels_py).items()
              if callable(f) and not name.startswith("_")
              and getattr(f, "__module__", None) == _kernels_py.__name__}
    python.remove("simpson_integral")
    # the compiled kernels are the functions of the extension module, all
    # builtins: no Python frame lies between a kernel's caller and C
    try:
        compiled = kernels.get_backend("cython")
    except ImportError:
        compiled = None
    if compiled is not None:
        functions = {name for name, f in vars(compiled).items()
                     if callable(f)}
        assert functions == python
        assert all(isinstance(getattr(compiled, name),
                              types.BuiltinFunctionType) for name in python)
    # every kernel that kernels binds, a Python twin or a compiled
    # function, is one of the active backend's
    active = kernels.get_backend(kernels.BACKEND)
    bound = {name for name, f in vars(kernels).items() if callable(f)
             and getattr(f, "__module__", None)
             in (_kernels_py.__name__, f"{excite_iter.__name__}._kernels")}
    assert bound == python
    assert all(getattr(kernels, name) is getattr(active, name)
               for name in python)
    # one allocator, kernels.empty, serves both backends: neither has its
    # own
    assert callable(kernels.empty)
    assert not hasattr(_kernels_py, "empty")
    assert compiled is None or not hasattr(compiled, "empty")
    # the non-static functions of _kernels.c are the C kernels of the
    # compiled ones, format_csv_rows that of write_csv_rows, and the
    # module's init function: no dead C function
    with open(kernels._SOURCE) as f:
        source = re.sub(r"/\*.*?\*/", "", f.read(), flags=re.S)
    defined = set(re.findall(r"^(?!static\b)\w[\w \t*]*?\b(\w+)\([^)]*\)"
                             r"\s*\{", source, flags=re.M))
    assert defined == python - {"write_csv_rows"} \
        | {"format_csv_rows", "PyInit__kernels"}


def _backend_in_subprocess(env):
    """(BACKEND, BACKEND_REASON, get_backend('cython') error or '', and
    whether kernels.riccati_sweep, kernels.excite_step and
    kernels.write_csv_rows are the Python kernels, as 'True True True'
    etc.) of a fresh import of excite_iter.kernels."""
    code = ("from excite_iter import _kernels_py, kernels\n"
            "print(kernels.BACKEND)\n"
            "print(kernels.BACKEND_REASON)\n"
            "try:\n"
            "    kernels.get_backend('cython')\n"
            "    print('')\n"
            "except ImportError as exc:\n"
            "    print(exc)\n"
            "print(kernels.riccati_sweep is _kernels_py.riccati_sweep,\n"
            "      kernels.excite_step is _kernels_py.excite_step,\n"
            "      kernels.write_csv_rows is _kernels_py.write_csv_rows)\n")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.mark.skipif(not _can_build_kernel(),
                    reason="no C compiler: the cache is never reached")
def test_unwritable_cache_falls_back_to_python(tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    env = dict(os.environ, XDG_CACHE_HOME=str(blocker))
    backend, _, message, _ = _backend_in_subprocess(env)
    assert backend == "python"
    assert str(blocker / "excite-iter") in message


@pytest.mark.skipif(not _can_build_kernel(),
                    reason="no C compiler: no build is tried")
def test_failed_build_falls_back_to_python(tmp_path):
    package = tmp_path / "src" / "excite_iter"
    shutil.copytree(os.path.dirname(excite_iter.__file__), package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    (package / "_kernels.c").write_text(
        "long riccati_sweep(void) { return }\n")
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"),
               PYTHONPATH=str(tmp_path / "src"))
    backend, reason, message, python_kernels = _backend_in_subprocess(env)
    assert backend == "python"
    assert "build of" in reason
    assert message == reason
    # the sweep, the profile and the CSV writer fall back together
    assert python_kernels == "True True True"
    # the failed build leaves no temporary file behind
    assert os.listdir(tmp_path / "cache" / "excite-iter") == []


@pytest.mark.skipif(not _can_build_kernel(),
                    reason="no C compiler: no build is tried")
def test_build_without_python_h_falls_back_to_python(tmp_path):
    # the interpreter's include directory, as a build reads it, is empty:
    # the build fails, and the reason names the missing header
    empty = tmp_path / "include"
    empty.mkdir()
    code = ("import sysconfig\n"
            "paths = sysconfig.get_paths\n"
            "sysconfig.get_paths = lambda *args, **kwargs: "
            f"{{**paths(*args, **kwargs), 'include': {str(empty)!r}}}\n"
            "from excite_iter import kernels\n"
            "print(kernels.BACKEND)\n"
            "print(kernels.BACKEND_REASON)\n")
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    backend, reason = done.stdout.splitlines()
    assert backend == "python"
    assert "build of _kernels.c failed" in reason and "Python.h" in reason
    assert os.listdir(tmp_path / "cache" / "excite-iter") == []


@pytest.mark.skipif(not _can_build_kernel(),
                    reason="no C compiler: no build to cache")
def test_cached_build_is_named_for_this_interpreter(tmp_path):
    # two interpreters that share a cache never load each other's build
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
    assert _backend_in_subprocess(env)[0] == "cython"
    [build] = os.listdir(tmp_path / "excite-iter")
    assert build.startswith("_kernels-")
    assert build.endswith(EXTENSION_SUFFIXES[0])


@pytest.mark.skipif(not _can_build_kernel(),
                    reason="no C compiler: no build to cache")
def test_cached_kernel_is_loaded_without_a_compiler(tmp_path):
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
    assert _backend_in_subprocess(env)[0] == "cython"     # primes the cache
    env["PATH"] = str(tmp_path / "no-such-directory")
    backend, reason, message, python_kernels = _backend_in_subprocess(env)
    assert backend == "cython"
    assert f"loaded from {tmp_path}" in reason
    assert message == ""
    assert python_kernels == "False False False"


@pytest.mark.skipif(not _can_build_kernel(),
                    reason="no C compiler: no build to cache")
def test_cached_kernel_import_loads_no_build_or_error_modules(tmp_path):
    # subprocess, sysconfig and shlex are needed only to build the kernels,
    # fractions only to word an off-grid anchor error, and hashlib and
    # numpy by no code: the cached build is keyed by zlib.crc32, and grid
    # arrays are array('d')
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
    assert _backend_in_subprocess(env)[0] == "cython"     # primes the cache
    code = ("import sys\n"
            "import excite_iter.cli\n"
            "print(excite_iter.cli.kernels.BACKEND,\n"
            "      [m for m in ('fractions', 'subprocess', 'hashlib',\n"
            "                   'shlex', 'sysconfig', 'numpy')\n"
            "       if m in sys.modules])\n")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "cython []"


def test_built_distribution_ships_the_kernel_source(tmp_path):
    root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(excite_iter.__file__))))
    if not os.path.isfile(os.path.join(root, "pyproject.toml")):
        pytest.skip("package not run from its source tree")
    project = tmp_path / "project"
    shutil.copytree(os.path.join(root, "src"), project / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(root, "pyproject.toml"), project)
    done = subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "build_py", "--build-lib", str(tmp_path / "lib")],
        cwd=project, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "lib" / "excite_iter" / "_kernels.c").is_file()


def test_default_domain_rule():
    assert default_x_max(3.0) == pytest.approx(4.0)
    assert abs(default_x_max(8.0) - 2.9) < 0.3
    assert default_x_max(1.0) > default_x_max(10.0)
    # the edge and both anchor candidates land on default-grid nodes
    for g in (1.0, 3.0, 8.0, 10.0):
        for target in (1.0, 0.5):
            ratio = 16000.0 * target / default_x_max(g)
            assert ratio == round(ratio)
    # every edge the rule can pick keeps both anchor candidates on nodes of
    # the default 4001-node grid and of its 2001-node half grid, which the
    # CLI's half-grid error estimate runs on
    for edge in groundstate._EDGE_LADDER:
        for n_points in (4001, 2001):
            for target in (1.0, 0.5):
                ratio = (n_points - 1) * target / edge
                assert ratio == round(ratio), (edge, n_points, target)
                Grid(edge, n_points).index_of(target)
    lo, hi = default_bracket(3.0)
    assert lo < 2.4826969 < hi


def _bisected_x_max(g):
    """default_x_max by its former route: bisect x^3/3 - x + 2/3 =
    100/(2g) on [1, 40], then round up to the ladder."""
    target = 100.0 / (2.0 * g)
    lo, hi = 1.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid ** 3 / 3.0 - mid + 2.0 / 3.0 < target:
            lo = mid
        else:
            hi = mid
    return min(e for e in groundstate._EDGE_LADDER if e >= hi - 1e-9)


def test_default_x_max_matches_the_bisection():
    couplings = [*np.logspace(-4.0, 4.0, 2001), 0.7, 1.0, 3.0, 8.0, 12.0,
                 120.0]
    for g in couplings:
        assert default_x_max(g) == _bisected_x_max(g), g


# --------------------------------------------------------- scaled_weight

def test_scaled_weight_is_built_once_and_read_only():
    gs = soluble_groundstate(0.1, Grid(1.0, 2001))
    w, u_ref, winv = gs.scaled_weight
    assert gs.scaled_weight is gs.scaled_weight
    assert gs.scaled_weight[0] is w and gs.scaled_weight[2] is winv
    for weight in (w, winv):
        # a read-only view: neither it nor a NumPy view of it writes
        assert weight.readonly
        with pytest.raises(TypeError):
            weight[0] = 1.0
        assert not np.asarray(weight).flags.writeable
        # the wall node carries exactly zero weight, both ways
        assert weight[-1] == 0.0
    # the largest weight is 1, and winv is 1/w off the wall
    w, winv = np.asarray(w), np.asarray(winv)
    assert w.max() == 1.0 and u_ref == -2.0 * gs.s[np.argmax(w)]
    assert winv[np.argmax(w)] == 1.0
    assert np.allclose(w[:-1] * winv[:-1], 1.0, rtol=1e-12, atol=0.0)


def test_scaled_weight_is_not_shared_by_a_replaced_ground_state():
    gs = solve_groundstate_numeric(Quartic(3.0), Grid(4.0, 2001))
    w, _, winv = gs.scaled_weight
    shifted = GroundState(gs.grid, np.asarray(gs.s) + 5, gs.s_prime,
                          gs.e_gd, gs.potential)
    assert shifted.scaled_weight is not gs.scaled_weight
    assert shifted.scaled_weight[0] is not w
    assert shifted.scaled_weight[2] is not winv
    assert shifted.scaled_weight[1] == pytest.approx(
        gs.scaled_weight[1] - 10.0, abs=1e-12)
    assert gs.scaled_weight[0] is w and gs.scaled_weight[2] is winv


@st.composite
def log_profiles(draw):
    """S of a length in [1, 60] with NaN, +-inf and finite values, some of
    them where 2S + u_ref meets OVERFLOW_EXPONENT: S = 0 is the smallest
    finite sample when all others are >= 0, and then S = 350 puts the
    exponent on the cut and its neighbours either side of it."""
    cut = groundstate.OVERFLOW_EXPONENT / 2.0
    n = draw(st.integers(1, 60))
    s = draw(st.lists(st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, cut,
                         math.nextafter(cut, 0.0),
                         math.nextafter(cut, math.inf)]),
        st.floats(-400.0, 400.0)), min_size=n, max_size=n))
    return s


@given(log_profiles())
def test_weight_backends_agree_bit_for_bit(s):
    # w, winv and u_ref of both backends, and the cut to 0: w where -2S
    # is not finite, winv where 2S + u_ref is not <= OVERFLOW_EXPONENT
    limit = groundstate.OVERFLOW_EXPONENT
    results = []
    for name in ("python", "cython"):
        try:
            backend = kernels.get_backend(name)
        except ImportError:
            continue
        w, winv = _kernels_py.zeros(len(s)), _kernels_py.zeros(len(s))
        u_ref = backend.scaled_weights(s, limit, w, winv)
        results.append((u_ref.hex(), w.tobytes(), winv.tobytes()))
        finite = [math.isfinite(-2.0 * v) for v in s]
        if not any(finite):
            assert u_ref == -math.inf and not any(w) and not any(winv)
            continue
        assert u_ref == max(-2.0 * v for v, ok in zip(s, finite) if ok)
        assert [wi == 0.0 for wi, ok in zip(w, finite) if not ok] \
            == [True] * finite.count(False)
        assert max(w) == 1.0
        for v, wi in zip(s, winv):
            e = 2.0 * v + u_ref
            assert wi == (math.exp(e) if e <= limit else 0.0)
    assert len(set(results)) == 1


def test_scaled_weight_of_a_profile_with_no_finite_sample_is_an_error():
    # the weights are built with the ground state, so the bad S is
    # refused where it is given
    with pytest.raises(ValueError, match="no finite sample"):
        groundstate.GroundState(Grid(1.0, 3), [math.inf] * 3, [0.0] * 3,
                                0.0, None)


# ---------------------------------------------------------- serialization

def assert_saved_bit_for_bit(gs, path):
    """save_groundstate's CSV reads back to the nodes, S and S' of gs, and
    its sidecar holds exactly the energy, potential and grid of gs."""
    save_groundstate(gs, path)
    with open(path) as f:
        assert f.readline() == "x,S,Sprime\n"
        x, s, s_prime = np.loadtxt(f, delimiter=",", unpack=True)
    for back, want in ((x, gs.grid.nodes()), (s, gs.s),
                       (s_prime, gs.s_prime)):
        assert back.tobytes() == want.tobytes()
    with open(f"{path}.json") as f:
        assert json.load(f) == {"e_gd": gs.e_gd,
                                "potential": gs.potential.to_dict(),
                                "grid": gs.grid.to_dict()}


def test_groundstate_roundtrip(tmp_path):
    gs = solve_groundstate_numeric(Quartic(3.0), Grid(4.0, 2001))
    assert_saved_bit_for_bit(gs, tmp_path / "gs.csv")


def test_soluble_roundtrip_with_wall(tmp_path):
    gs = soluble_groundstate(0.1, Grid(1.0, 201))
    assert gs.s[-1] == gs.s_prime[-1] == np.inf
    assert_saved_bit_for_bit(gs, tmp_path / "gs.csv")


def test_write_csv_rejects_columns_of_unequal_length(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=r"\[\(5,\), \(3,\)\]"):
        write_csv(path, ["a", "b"], [np.arange(5.0), np.arange(3.0)])
    assert not path.exists()
    # either backend's kernel, called directly, rejects them too
    for write_csv_rows in (_kernels_py.write_csv_rows, _compiled_csv_rows()):
        f = io.BytesIO()
        with pytest.raises(ValueError, match="1-D and of one length"):
            write_csv_rows(f, [array("d", [1, 2, 3]), array("d", [4])])
        assert f.getvalue() == b""


def test_write_csv_rejects_a_column_that_is_not_1d(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=r"\[\(2, 2\)\]"):
        write_csv(path, ["a"], [np.ones((2, 2))])
    assert not path.exists()


def _compiled_csv_rows():
    try:
        return kernels.get_backend("cython").write_csv_rows
    except ImportError as exc:
        pytest.skip(str(exc))


def _assert_writes_17g(write_csv_rows, values):
    """write_csv_rows writes values, one column, as '%.17g' % v does."""
    values = np.asarray(values, dtype=float)
    want = "".join(["%.17g\n" % v for v in values.tolist()]).encode()
    f = io.BytesIO()
    write_csv_rows(f, [values])
    if f.getvalue() != want:
        wrong = [(v, g, w) for v, g, w in zip(
            values.tolist(), f.getvalue().splitlines(), want.splitlines())
            if g != w]
        pytest.fail(f"(value, written, '%.17g'): {wrong[:5]}")


@given(st.floats())
def test_formatters_agree_on_any_float(v):
    for write_csv_rows in (_kernels_py.write_csv_rows, _compiled_csv_rows()):
        _assert_writes_17g(write_csv_rows, [v])


def _ulps_around(p, count):
    """The 2 count + 1 floats from count ulps below p > 0 to count above."""
    bits = np.array([p]).view(np.int64) + np.arange(-count, count + 1)
    return bits.view(float)


def test_formatters_agree_bit_for_bit():
    rng = np.random.default_rng(20)
    around_powers_of_ten = np.concatenate(
        [_ulps_around(10.0 ** k, 2000) for k in range(-20, 21)])
    powers_of_two = 2.0 ** np.arange(-1074, 1024)
    # m / 2^j with a 53-bit m: the values whose 17 digits may end in a tie
    ties = (rng.integers(2 ** 52, 2 ** 53, 200_000).astype(float)
            / 2.0 ** rng.integers(0, 120, 200_000))
    values = np.concatenate([
        rng.integers(0, 2 ** 64, 1_000_000, dtype=np.uint64).view(float),
        around_powers_of_ten, -around_powers_of_ten,
        powers_of_two, -powers_of_two, ties,
        [0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0)]])
    # the Python kernel formats with '%.17g' % v itself
    _assert_writes_17g(_compiled_csv_rows(), values)


@pytest.mark.parametrize("offset", [None, -1, 0, 1])
def test_backends_write_the_same_csv_at_chunk_edges(tmp_path, monkeypatch,
                                                    offset):
    chunk = _kernels_py.CSV_CHUNK_ROWS
    n = 1 if offset is None else chunk + offset
    rng = np.random.default_rng(n)
    columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
               for _ in range(3)]
    files = []
    for write_csv_rows in (_kernels_py.write_csv_rows, _compiled_csv_rows()):
        monkeypatch.setattr(kernels, "write_csv_rows", write_csv_rows)
        path = tmp_path / f"{len(files)}.csv"
        write_csv(path, ["a", "b", "c"], columns)
        files.append(path.read_bytes())
    assert files[0] == files[1]
    assert files[0].count(b"\n") == n + 1
