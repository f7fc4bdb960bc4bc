"""Kernel backend selection.

The compiled sweep is preferred; the pure-Python implementation is a
drop-in replacement with bit-identical output. The compiled one is the
plain C file ``_rk4.c``, built into the user cache,
``$XDG_CACHE_HOME/excite-iter/`` (``~/.cache/excite-iter/`` when unset),
on the first import that finds no build for this source and these flags,
and loaded from there through ctypes. The Python kernel is used when there
is no C compiler, the cache directory cannot be written or the build fails.

``BACKEND`` names the active backend and ``BACKEND_REASON`` says why.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from types import SimpleNamespace

import numpy as np

from . import _kernels_py

# -ffp-contract=off keeps the compiler from fusing a*b+c into one rounding,
# which would break bit-identity with the Python kernel
_FLAGS = ["-O2", "-ffp-contract=off", "-fPIC", "-shared"]
_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_rk4.c")


def _cache_dir() -> str:
    """Directory that holds the compiled kernel builds."""
    base = (os.environ.get("XDG_CACHE_HOME")
            or os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(base, "excite-iter")


def _build() -> str:
    """Path of the compiled kernel in the cache, compiling it first if no
    build of this source with these flags exists. Raises ImportError with
    the cause when it cannot be had."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc or shutil.which(cc[0]) is None:
        raise ImportError(f"no C compiler: {' '.join(cc) or 'CC'!r} "
                          "not found")
    command = cc + _FLAGS
    try:
        with open(_SOURCE, "rb") as f:
            source = f.read()
    except OSError as exc:
        raise ImportError(f"shipped kernel source unreadable: {exc}") from exc
    key = hashlib.sha256(source)
    key.update("\0".join(command).encode())
    directory = _cache_dir()
    path = os.path.join(directory, f"_rk4-{key.hexdigest()[:16]}.so")
    if os.path.isfile(path):
        return path
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=directory)
        os.close(fd)
    except OSError as exc:
        raise ImportError(
            f"cache directory {directory} not writable: {exc}") from exc
    try:
        done = subprocess.run(command + [_SOURCE, "-o", tmp],
                              capture_output=True, text=True)
        if done.returncode != 0:
            lines = done.stderr.strip().splitlines()
            first = next((ln for ln in lines if "error" in ln),
                         "".join(lines[-1:]))
            raise ImportError(f"build of {_SOURCE} failed "
                              f"(exit {done.returncode}): {first}")
        # a concurrent first import may replace the same name: both
        # builds are identical, and the rename is atomic
        os.replace(tmp, path)
    except OSError as exc:
        raise ImportError(f"build of {_SOURCE} failed: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def _load():
    """Build (once) and load the C sweep; returns it wrapped with the
    signature of _kernels_py.riccati_sweep, and where it was loaded from."""
    path = _build()
    try:
        c_sweep = ctypes.CDLL(path).riccati_sweep
    except (OSError, AttributeError) as exc:
        raise ImportError(f"cannot load {path}: {exc}") from exc
    c_sweep.restype = ctypes.c_long
    c_sweep.argtypes = ([ctypes.c_double] * 2 + [ctypes.c_long]
                        + [ctypes.c_double] * 4 + [ctypes.c_void_p] * 2)

    def riccati_sweep(x_start, h, n_steps, g, e, s_init, sp_init):
        """See _kernels_py.riccati_sweep."""
        if n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {n_steps}")
        s = np.empty(n_steps + 1)
        sp = np.empty(n_steps + 1)
        node = c_sweep(x_start, h, n_steps, g, e, s_init, sp_init,
                       s.ctypes.data, sp.ctypes.data)
        return s, sp, node

    return riccati_sweep, f"built from {_SOURCE}, loaded from {path}"


try:
    riccati_sweep, BACKEND_REASON = _load()
    BACKEND = "cython"
except ImportError as exc:
    riccati_sweep = _kernels_py.riccati_sweep
    BACKEND = "python"
    BACKEND_REASON = f"no compiled kernel: {exc}"
_compiled = SimpleNamespace(riccati_sweep=riccati_sweep)


def get_backend(name: str):
    """Return the kernel for an explicit backend name, an object with a
    ``riccati_sweep`` attribute: 'cython' (the compiled C sweep; the name
    predates the plain-C kernel) or 'python'. Raises ImportError, naming
    the cause, for 'cython' when no compiled kernel could be had."""
    if name == "python":
        return _kernels_py
    if name == "cython":
        if BACKEND != "cython":
            raise ImportError(BACKEND_REASON)
        return _compiled
    raise ValueError(f"unknown backend {name!r}")
