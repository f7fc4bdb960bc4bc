"""What a result was measured on: code, kernel backend, libraries and
machine."""

from __future__ import annotations

import glob
import importlib.metadata
import importlib.util
import os
import platform
import subprocess


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError as exc:
        return f"unknown ({exc})"
    return out.stdout.strip() or f"unknown ({out.stderr.strip()})"


def import_error_text(exc):
    """The message of an ImportError without the file path it names."""
    text = str(exc)
    return text.replace(f" ({exc.path})", "") if exc.path else text


def backend_reason():
    """Which kernel backend is active and why."""
    from excite_iter import kernels
    try:
        from excite_iter import _kernels_c  # noqa: F401
        compiled = "compiled extension excite_iter._kernels_c imports"
    except ImportError as exc:
        compiled = ("compiled extension not importable: "
                    + import_error_text(exc))
    cython = ("Cython importable" if importlib.util.find_spec("Cython")
              else "Cython not installed, so setup.py builds no extension")
    return kernels.BACKEND, f"{compiled}; {cython}"


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cache_sizes():
    """Sizes of the data/unified caches of CPU 0 by level, as sysfs
    gives them (e.g. {"L2": "4096K"})."""
    sizes = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(d, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(d, "type")) as f:
                kind = f.read().strip()
            with open(os.path.join(d, "size")) as f:
                size = f.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def collect(root):
    backend, reason = backend_reason()
    return {
        "git_sha": git_sha(root),
        "kernel_backend": backend,
        "kernel_backend_reason": reason,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
    }
