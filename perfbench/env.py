"""Process environment of the benchmark: one BLAS/OpenMP thread, the
package taken from this checkout's ``src/``, and the stamp put on results.

Import this module before anything imports numpy: the thread variables only
take effect if they are set when numpy loads its BLAS.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "hermitia"


def use_source_tree() -> None:
    """Import ``hermitia`` from this checkout's src/, or exit with an error."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {PACKAGE}; run from the root of "
                 "a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import hermitia
    if Path(hermitia.__file__).resolve().parent != PACKAGE.resolve():
        sys.exit(f"perfbench: imported hermitia from {hermitia.__file__}, "
                 f"not from {PACKAGE}")


def git_sha() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 of the package sources, for checkouts without .git."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def threads_in_process() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def stamp(seed: int) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    a = np.ones((256, 256))
    a @ a          # a BLAS call, so that any thread pool has started
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k)
                 for k in ("name", "version", "openblas configuration")},
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "threads_in_process": threads_in_process(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "loadavg": os.getloadavg(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "seed": seed,
    }
