"""Shared plumbing: paths, the run envelope, process readings, summaries."""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

#: The checkout the benchmark runs from (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores, ledgers and span logs (git-ignored).
WORK = ROOT / ".perfbench_work"
#: Set-ups measured per run of every workload; ``setup_s`` is their
#: median.
SETUPS = 7


def require_program() -> None:
    """Exit non-zero unless the program's sources are in the checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {SRC / 'repro'}; run from "
            "a checkout of the repository",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


_CREATED: list[Path] = []


def scratch_dir(prefix: str) -> Path:
    """A fresh directory under :data:`WORK`, removed by :func:`cleanup`
    if nothing removed it earlier."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))
    _CREATED.append(path)
    return path


def cleanup() -> None:
    while _CREATED:
        remove_tree(_CREATED.pop())


def remove_tree(path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def child_env() -> dict:
    """Environment for program child processes: the checkout's sources
    first on the path, and no persistent solve/artifact caches leaking in
    from the caller's environment."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for name in ("REPRO_CACHE_DIR", "REPRO_ARTIFACT_DIR", "REPRO_LEDGER_DIR"):
        env.pop(name, None)
    return env


def stop_child(proc: subprocess.Popen, timeout: float = 15.0) -> int:
    """SIGTERM a child, wait for it, SIGKILL if it will not go."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait(timeout=timeout)


# -- process readings ------------------------------------------------------
def cpu_seconds(pid: int) -> float:
    """CPU time of every thread of ``pid`` (scheduler nanoseconds)."""
    total = 0
    task_dir = Path(f"/proc/{pid}/task")
    for task in task_dir.iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total / 1e9


def rss_mb(pid: int | str = "self") -> float:
    """Resident set size of ``pid`` in MiB."""
    with open(f"/proc/{pid}/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / (1 << 20)


class RssPeak:
    """Peak of sampled RSS above a baseline taken at construction."""

    def __init__(self, pid: int | str = "self") -> None:
        self.pid = pid
        self.baseline = rss_mb(pid)
        self.peak = self.baseline

    def sample(self) -> None:
        try:
            value = rss_mb(self.pid)
        except (FileNotFoundError, ProcessLookupError):
            return
        if value > self.peak:
            self.peak = value

    @property
    def growth_mb(self) -> float:
        return self.peak - self.baseline


# -- summaries -------------------------------------------------------------
def percentile(values, q: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    return float(np.percentile(values, q))


def median(values) -> float:
    return percentile(values, 50.0)


# -- the run envelope -------------------------------------------------------
def source_digest() -> str:
    """SHA-256 over the program's sources: identifies the code measured
    in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip()


def envelope(workload: str, seed: int, seconds: int, traced: bool,
             params: dict) -> dict:
    """Facts a result must carry; results with a different ``cpu_count``
    are never compared."""
    import numpy
    import scipy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count()
    return {
        "cpu_count": usable,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "params": params,
        "unix_time": round(time.time(), 3),
    }
