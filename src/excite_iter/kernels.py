"""Kernel backend selection.

Two kernels have a compiled and a pure-Python implementation with
bit-identical output: the Riccati sweep of the ground-state solve and the
profile of one iteration step, whose two running integrals mirror
numerics.cumulative_simpson's operation order: Simpson panel pairs, and
the half-panel rule h/12 (5 y0 + 8 y1 - y2) at odd offsets.  The
compiled ones are the plain C file ``_kernels.c``, built into the user
cache, ``$XDG_CACHE_HOME/excite-iter/`` (``~/.cache/excite-iter/`` when
unset), on the first import that finds no build for this source and these
flags, and loaded from there through ctypes.  The Python kernels are used when
there is no build and no C compiler, the cache directory cannot be
written or the build fails; both kernels fall back together.

The ctypes wrapper of the compiled profile passes array addresses.  It
looks up those of a ground state's weights w and winv once per run: it
keeps the last pair it was given that needed no conversion, with their
addresses, and holds both arrays so that their memory stays theirs.  It
still checks out and the shapes on every call, and converts on every call
an array that needs it.

``BACKEND`` names the active backend and ``BACKEND_REASON`` says why.
"""

from __future__ import annotations

import ctypes
import os
import zlib
from types import SimpleNamespace

import numpy as np

from . import _kernels_py

# -ffp-contract=off keeps the compiler from fusing a*b+c into one rounding,
# which would break bit-identity with the Python kernels
_FLAGS = ["-O2", "-ffp-contract=off", "-fPIC", "-shared"]
_SOURCE_NAME = "_kernels.c"
_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       _SOURCE_NAME)


def _cache_dir() -> str:
    """Directory that holds the compiled kernel builds."""
    base = (os.environ.get("XDG_CACHE_HOME")
            or os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(base, "excite-iter")


def _build() -> str:
    """Path of the compiled kernels in the cache, compiling them first if
    no build of this source with these flags exists. Raises ImportError
    with the cause when they cannot be had."""
    try:
        with open(_SOURCE, "rb") as f:
            source = f.read()
    except OSError as exc:
        raise ImportError(f"shipped kernel source unreadable: {exc}") from exc
    key = zlib.crc32("\0".join(_FLAGS).encode(), zlib.crc32(source))
    directory = _cache_dir()
    path = os.path.join(directory, f"_kernels-{key:08x}.so")
    if os.path.isfile(path):
        return path
    import shlex        # only a build needs these
    import shutil
    import subprocess
    import sysconfig
    import tempfile
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc or shutil.which(cc[0]) is None:
        raise ImportError(f"no C compiler: {' '.join(cc) or 'CC'!r} "
                          "not found")
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=directory)
        os.close(fd)
    except OSError as exc:
        raise ImportError(
            f"cache directory {directory} not writable: {exc}") from exc
    try:
        # compiled from its own directory, so that the compiler's
        # messages name the source as the reasons do: by its file name
        done = subprocess.run(cc + _FLAGS + [_SOURCE_NAME, "-o", tmp],
                              cwd=os.path.dirname(_SOURCE),
                              capture_output=True, text=True)
        if done.returncode != 0:
            lines = done.stderr.strip().splitlines()
            first = next((ln for ln in lines if "error" in ln),
                         "".join(lines[-1:]))
            raise ImportError(f"build of {_SOURCE_NAME} failed "
                              f"(exit {done.returncode}): {first}")
        # a concurrent first import may replace the same name: both
        # builds are identical, and the rename is atomic
        os.replace(tmp, path)
    except OSError as exc:
        raise ImportError(f"build of {_SOURCE_NAME} failed: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def _load():
    """Build (once) and load the C kernels; returns them wrapped with the
    signatures of their _kernels_py counterparts, and where they were
    loaded from."""
    path = _build()
    try:
        lib = ctypes.CDLL(path)
        c_sweep, c_profile = lib.riccati_sweep, lib.excite_profile
    except (OSError, AttributeError) as exc:
        raise ImportError(f"cannot load {path}: {exc}") from exc
    c_sweep.restype = ctypes.c_long
    c_sweep.argtypes = ([ctypes.c_double] * 2 + [ctypes.c_long]
                        + [ctypes.c_double] * 5 + [ctypes.c_void_p] * 2)
    c_profile.restype = None
    c_profile.argtypes = ([ctypes.c_long, ctypes.c_double]
                          + [ctypes.c_void_p] * 3
                          + [ctypes.c_double, ctypes.c_void_p])

    def riccati_sweep(x_start, h, n_steps, g, e, s_init, sp_init):
        """See _kernels_py.riccati_sweep."""
        if n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {n_steps}")
        s = np.empty(n_steps + 1)
        sp = np.empty(n_steps + 1)
        node = c_sweep(x_start, h, n_steps, g, e, s_init, sp_init,
                       _kernels_py.BLOWUP_LIMIT, s.ctypes.data,
                       sp.ctypes.data)
        return s, sp, node

    # the last (w, winv) that needed no conversion, and their addresses:
    # a run passes its ground state's weights on every step, and a
    # .ctypes.data lookup costs about a microsecond.  Holding the arrays
    # keeps their memory, so no other array can take their addresses; a
    # converted copy is never kept, as its source may change
    weights = (None, None, 0, 0)

    def excite_profile(h, w, winv, chi_prev, tail, out):
        """See _kernels_py.excite_profile; the integrands stay in
        registers, so it needs no temporary array."""
        nonlocal weights
        n = len(chi_prev)
        if n < 3 or n % 2 == 0:
            raise ValueError("need an odd number of nodes, at least 3")
        _kernels_py.check_profile_out(out, n, w, winv, chi_prev)
        if w is weights[0] and winv is weights[1]:
            w_at, winv_at = weights[2:]
        else:
            given_w, given_winv = w, winv
            w, winv = (np.ascontiguousarray(a, dtype=float) for a in (w, winv))
            w_at, winv_at = w.ctypes.data, winv.ctypes.data
            if w is given_w and winv is given_winv:   # neither was copied
                weights = w, winv, w_at, winv_at
        chi_prev = np.ascontiguousarray(chi_prev, dtype=float)
        if not w.shape == winv.shape == chi_prev.shape == (n,):
            raise ValueError(f"profile arrays must have shape ({n},)")
        c_profile(n, h, w_at, winv_at, chi_prev.ctypes.data, tail,
                  out.ctypes.data)
        return out

    kernels = SimpleNamespace(riccati_sweep=riccati_sweep,
                              excite_profile=excite_profile)
    return kernels, f"built from {_SOURCE_NAME}, loaded from {path}"


try:
    _compiled, BACKEND_REASON = _load()
    BACKEND = "cython"
except ImportError as exc:
    _compiled = None
    BACKEND = "python"
    BACKEND_REASON = f"no compiled kernel: {exc}"
riccati_sweep = (_compiled or _kernels_py).riccati_sweep
excite_profile = (_compiled or _kernels_py).excite_profile


def get_backend(name: str):
    """Return the kernels for an explicit backend name, an object with
    ``riccati_sweep`` and ``excite_profile`` attributes: 'cython' (the
    compiled C kernels; the name predates them) or 'python'. Raises
    ImportError, naming the cause, for 'cython' when no compiled kernels
    could be had."""
    if name == "python":
        return _kernels_py
    if name == "cython":
        if _compiled is None:
            raise ImportError(BACKEND_REASON)
        return _compiled
    raise ValueError(f"unknown backend {name!r}")
