"""Set-up shared by the workloads: build, stage and describe the program.

The benchmark measures the checkout it runs in.  :func:`stage_program`
copies ``src/repro`` into a private build directory and compiles the
optional native kernel tier into that copy with a forced rebuild, so an
extension left over from another commit is never timed.  Without a
compiler the copy runs on the NumPy tier, and :func:`environment` says so.
"""

from __future__ import annotations

import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

__all__ = ["BUILD_DIR", "CheckoutError", "stage_program", "environment",
           "filesystem_type"]

#: Private, git-ignored build area inside the benchmark's directory.
BUILD_DIR = Path("perfbench") / "_build"


class CheckoutError(RuntimeError):
    """The working directory is not a checkout the benchmark can build."""


def stage_program(root: Path, run_dir: Path) -> dict:
    """Copy the sources into ``run_dir/stage`` and build the native tier.

    Returns build facts (seconds taken, whether an extension was built,
    where the staged copy is).  Raises :class:`CheckoutError` when
    ``root`` holds no ``src/repro`` or ``setup.py``.
    """
    source = root / "src" / "repro"
    setup_py = root / "setup.py"
    if not (source / "__init__.py").is_file() or not setup_py.is_file():
        raise CheckoutError(
            f"{root} has no src/repro package and setup.py to build")
    stage = run_dir / "stage"
    shutil.copytree(source, stage / "repro",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    lib = run_dir / "lib"
    tmp = run_dir / "tmp"
    started = time.perf_counter()
    # setup.py degrades to no extension when nothing can be compiled
    subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--force",
         "--build-lib", str(lib), "--build-temp", str(tmp)],
        cwd=root, capture_output=True, text=True, timeout=600)
    seconds = time.perf_counter() - started
    built = sorted(lib.glob("repro/_kernels/_native/_nativecore*"))
    for artifact in built:
        shutil.copy2(artifact, stage / "repro" / "_kernels" / "_native"
                     / artifact.name)
    return {"build_seconds": round(seconds, 3),
            "native_built": bool(built),
            "stage": str(stage)}


def filesystem_type(path: Path) -> str:
    """File system type of ``path`` as ``stat -f`` reports it."""
    try:
        completed = subprocess.run(["stat", "-f", "-c", "%T", str(path)],
                                   capture_output=True, text=True,
                                   timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() or "unknown"


def environment(build: dict, **extra) -> dict:
    """What the numbers of one run depend on, for the record."""
    import numpy

    from repro import _kernels

    info = _kernels.native_build_info()
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count()
    record = {
        "kernel_tiers": _kernels.describe_tiers(),
        "native_status": info.get("status"),
        "openmp": bool(info.get("openmp")),
        "openmp_threads": info.get("max_threads"),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native_built": build.get("native_built"),
        "build_seconds": build.get("build_seconds"),
    }
    if not build.get("native_built"):
        record["note"] = ("no native extension could be built here: the run "
                          "measures the NumPy kernel tier")
    record.update(extra)
    return record
