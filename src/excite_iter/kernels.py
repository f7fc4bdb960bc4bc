"""Kernel backend selection.

Every kernel has a compiled and a pure-Python implementation with
bit-identical output, but for the sign of a NaN: the ground states, which
are the Riccati sweep, the shooting solve's two sweeps and their join
(shoot) and the box's closed form (soluble_profile); the grid passes of
an iteration, which are the weights of a ground state (scaled_weights),
the trial samples (sample_nodes), one whole step (excite_step: the
profile, two running Simpson integrals, split by the rule
chi_n(x0) = chi_{n-1}(x0); with the anchor at node 0, the profile
alone) and the residual's two Simpson integrals (weighted_simpson); and
the CSV writer of the artifacts, which writes every cell as Python's
'%.17g' % v.
The compiled ones are the CPython extension module excite_iter._kernels,
built from the C file ``_kernels.c`` into the user cache,
``$XDG_CACHE_HOME/excite-iter/`` (``~/.cache/excite-iter/`` when unset),
on the first import that finds no build for this source, these flags and
this interpreter's extension suffix, and loaded from there.  A build
needs a C compiler and the interpreter's headers (Python.h).  The Python
kernels are used when there is no build and no C compiler, the cache
directory cannot be written or the build fails, as it does without
Python.h; all kernels fall back together.  Their module, _kernels_py, is
imported only then, or when get_backend('python') asks for it.

Grid arrays are array('d'), or rows of a block: writable memoryviews of
the doubles that empty(n) gives, whose values are unspecified until
written.  One empty serves both backends: a block is a bytearray that
CPython leaves unfilled, freed when its last view dies.  A kernel reads
those in place (in_place) and converts any other 1-D sequence of reals
first (as_doubles); it writes only into an array('d') or a writable view
(check_out).  empty and these array helpers are defined here, for both
backends and their callers.  A compiled kernel makes the same checks in
C, through the buffer protocol, with the same messages, and calls
as_doubles for what it converts; excite_step takes a ground state's
weights as the (values, address) pairs that in_place gave once
(step_inputs).  The compiled CSV writer formats CSV_CHUNK_ROWS rows at a
time into one buffer, and writes each chunk before it formats the next.

``BACKEND`` names the active backend and ``BACKEND_REASON`` says why.
"""

from __future__ import annotations

import ctypes
import os
import sys
import zlib
from array import array
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location

# -ffp-contract=off keeps the compiler from fusing a*b+c into one rounding,
# which would break bit-identity with the Python kernels; -lm, after the
# source, links the exp that Python's math module calls.  A build adds
# -I the interpreter's include directory, for Python.h
_FLAGS = ["-O2", "-ffp-contract=off", "-fPIC", "-shared"]
_LIBS = ["-lm"]
_SOURCE_NAME = "_kernels.c"
_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       _SOURCE_NAME)

#: |S'| above which a Riccati sweep has blown up (a node of the wave
#: function)
BLOWUP_LIMIT = 1e12

#: rows that write_csv_rows formats and writes at a time, on both backends
CSV_CHUNK_ROWS = 1024

_ZERO = array("d", [0.0])

# a new bytearray into which a NULL source copies nothing; looked up by
# item, a function object of its own, whose types no other code sets
_unfilled_bytearray = ctypes.pythonapi["PyByteArray_FromStringAndSize"]
_unfilled_bytearray.restype = ctypes.py_object
_unfilled_bytearray.argtypes = (ctypes.c_void_p, ctypes.c_ssize_t)


def empty(n: int) -> memoryview:
    """A writable view of n doubles, unspecified until written: a new
    bytearray that nothing fills, freed when its last view dies.  Raises
    ValueError for n < 0, MemoryError when 8 n bytes cannot be had."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n > sys.maxsize // 8:        # 8 n would overflow a buffer's size
        raise MemoryError(f"cannot allocate {n} doubles")
    return memoryview(_unfilled_bytearray(None, 8 * n)).cast("d")


def zeros(n: int) -> array:
    """A new array('d') of n zeros."""
    return _ZERO * n


def as_doubles(values) -> array:
    """values as an array('d'): values itself when it is one, else a new
    array of its samples.  Raises ValueError, naming the shape, for a
    buffer that is not 1-D."""
    if isinstance(values, array) and values.typecode == "d":
        return values
    try:
        shape = memoryview(values).shape
    except TypeError:           # no buffer: a sequence of reals, or not
        shape = None
    if shape is not None and len(shape) != 1:
        raise ValueError(f"samples must lie in a 1-D array, got shape "
                         f"{shape}")
    return array("d", values)


def _address(a) -> int | None:
    """The address of the first double of a when a kernel can use a in
    place: an array('d'), a writable C-contiguous 1-D view of doubles (a
    row of a block) or a read-only view of a whole array('d') (the
    weights of a ground state); else None."""
    if isinstance(a, array):
        return a.buffer_info()[0] if a.typecode == "d" else None
    if not (isinstance(a, memoryview) and a.format == "d" and a.ndim == 1
            and a.c_contiguous and len(a)):
        return None
    if not a.readonly:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    base = a.obj
    if isinstance(base, array) and base.typecode == "d" \
            and len(base) == len(a):
        return base.buffer_info()[0]
    return None


def in_place(values) -> tuple:
    """(values, the address of their first double) when a kernel can use
    them in place, else (as_doubles(values), its address)."""
    at = _address(values)
    if at is None:
        values = as_doubles(values)
        at = values.buffer_info()[0]
    return values, at


def check_out(out, n: int, *inputs) -> int:
    """The contract of every kernel's out on both backends: an array('d')
    or a writable C-contiguous view of n doubles that shares no memory
    with the call's inputs, (values, address) pairs as in_place gives
    them.  Returns the address of out; raises ValueError otherwise."""
    at = _address(out)
    if at is None or (isinstance(out, memoryview) and out.readonly) \
            or len(out) != n:
        raise ValueError(f"out must be an array('d') or a writable view "
                         f"of {n} doubles")
    for values, values_at in inputs:
        if values_at < at + 8 * n and at < values_at + 8 * len(values):
            raise ValueError("out must not share memory with the "
                             "kernel's other arrays")
    return at


def odd_columns(n: int, *columns) -> list:
    """(values, address) of each column as in_place gives them, each of
    n >= 3 doubles, n odd; raises ValueError otherwise."""
    if n < 3 or n % 2 == 0:
        raise ValueError("need an odd number of nodes, at least 3")
    columns = [in_place(c) for c in columns]
    if any(len(c) != n for c, _ in columns):
        raise ValueError(f"arrays must hold {n} doubles each")
    return columns


def step_inputs(weights, chi_prev, i0: int) -> tuple:
    """The (values, address) pairs of a step's inputs: chi_prev as
    in_place gives it, then weights, the (w, address), (winv, address)
    pairs that in_place gave once for a ground state.  Each must hold
    n = len(chi_prev) doubles, n odd and >= 3, and i0 must lie in
    [0, n); raises ValueError otherwise."""
    n = len(chi_prev)
    if n < 3 or n % 2 == 0:
        raise ValueError("need an odd number of nodes, at least 3")
    (w, _), (winv, _) = weights
    if len(w) != n or len(winv) != n:
        raise ValueError(f"arrays must hold {n} doubles each")
    if not 0 <= i0 < n:
        raise ValueError(f"need 0 <= i0 < n, got i0={i0}, n={n}")
    return (in_place(chi_prev), *weights)


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
    key = zlib.crc32("\0".join(_FLAGS + _LIBS).encode(),
                     zlib.crc32(source))
    directory = _cache_dir()
    path = os.path.join(directory,
                        f"_kernels-{key:08x}{EXTENSION_SUFFIXES[0]}")
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
        include = sysconfig.get_paths()["include"]
        done = subprocess.run(cc + _FLAGS + ["-I", include, _SOURCE_NAME,
                                             "-o", tmp] + _LIBS,
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
    """Build (once) and load the compiled kernels: the extension module
    excite_iter._kernels, and where it was loaded from."""
    path = _build()
    name = f"{__package__}._kernels"
    try:
        spec = spec_from_file_location(name, path,
                                       loader=ExtensionFileLoader(name, path))
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError as exc:
        raise ImportError(f"cannot load {path}: {exc}") from exc
    sys.modules[name] = module
    return module, f"built from {_SOURCE_NAME}, loaded from {path}"


try:
    _compiled, BACKEND_REASON = _load()
    BACKEND = "cython"
except ImportError as exc:
    _compiled = None
    BACKEND = "python"
    BACKEND_REASON = f"no compiled kernel: {exc}"
if _compiled is None:
    from . import _kernels_py as _active
else:
    _active = _compiled
riccati_sweep = _active.riccati_sweep
shoot = _active.shoot
soluble_profile = _active.soluble_profile
scaled_weights = _active.scaled_weights
sample_nodes = _active.sample_nodes
weighted_simpson = _active.weighted_simpson
excite_step = _active.excite_step
write_csv_rows = _active.write_csv_rows


def get_backend(name: str):
    """Return the kernels for an explicit backend name, an object with an
    attribute for each kernel above: 'cython' (the compiled C kernels; the
    name predates them) or 'python'. Raises ImportError, naming the cause,
    for 'cython' when no compiled kernels could be had."""
    if name == "python":
        from . import _kernels_py
        return _kernels_py
    if name == "cython":
        if _compiled is None:
            raise ImportError(BACKEND_REASON)
        return _compiled
    raise ValueError(f"unknown backend {name!r}")
