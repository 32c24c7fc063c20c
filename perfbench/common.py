"""Shared plumbing of the benchmark: paths, statistics, process
measurements and the environment stamp."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from .speed import SpeedProbe, normalise

#: Root of the checkout the benchmark runs in (the parent of this
#: package), and the program's sources inside it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch output of the benchmark: span dumps, result records, the
#: serve workload's sockets and journals.  Ignored by git.
OUT = ROOT / ".perfbench_out"

#: Fresh interpreter start-ups timed per run for ``setup_s``.
SETUP_SAMPLES = 5

def ensure_program() -> None:
    """Put ``src`` on the import path; fail when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment of the processes the benchmark starts: the
    program's sources first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_imports(modules: Sequence[str]) -> list[tuple[float, float]]:
    """Seconds from starting a fresh interpreter to having imported
    ``modules`` — the set-up a user of the library pays before the
    first call — measured :data:`SETUP_SAMPLES` times, as (raw,
    normalised)."""
    code = "".join(f"import {m}\n" for m in modules) + "print('ready', flush=True)\n"
    out = []
    for _ in range(SETUP_SAMPLES):
        with SpeedProbe() as probe:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", code],
                cwd=ROOT,
                env=child_env(),
                capture_output=True,
                text=True,
                timeout=120,
            )
            elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or "ready" not in proc.stdout:
            raise RuntimeError(f"set-up import failed: {proc.stderr.strip()}")
        out.append((elapsed, normalise(elapsed, probe)))
    return out


def proc_status_kb(pid: int | str, field_name: str) -> float:
    """A ``kB`` field (``VmHWM``, ``VmRSS``) of ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field_name + ":"):
                return float(line.split()[1])
    raise KeyError(field_name)


def peak_rss_mb(pid: int | str = "self") -> float:
    return proc_status_kb(pid, "VmHWM") / 1024.0


def cpu_seconds(pid: int) -> float:
    """CPU seconds a process has run so far, summed over its threads
    (``/proc/<pid>/task/*/schedstat``, nanosecond resolution)."""
    total = 0
    for stat in Path(f"/proc/{pid}/task").glob("*/schedstat"):
        try:
            total += int(stat.read_text().split()[0])
        except (OSError, IndexError, ValueError):
            continue  # thread exited between listing and reading
    return total / 1e9


def filesystem_of(path: Path) -> str:
    """``fstype`` of the mount holding ``path`` (from ``/proc/mounts``)."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mnt = parts[1]
                inside = target == mnt or target.startswith(mnt.rstrip("/") + "/")
                if inside and len(mnt) > len(best):
                    best, fstype = mnt, parts[2]
    except OSError:
        pass
    return fstype


def _git_sha() -> str | None:
    """HEAD of the checkout, or ``None`` when it is not a repository
    (never the sha of an enclosing repository)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    """SHA-256 over the program's ``.py`` sources, path and bytes —
    identifies the code when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(journal_dir: Path) -> dict[str, Any]:
    """The environment stamp every result carries."""
    import numpy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "journal_fs": filesystem_of(journal_dir),
    }


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``end_to_end`` and ``per_layer`` map metric names to values (units
    come from :mod:`perfbench.metrics`); ``report`` holds named figures
    (``sim_tasks_per_s``, ``ack_p50_ms``, ...) for the human-readable
    lines; ``digests`` are the output digests that must repeat for a
    given seed.
    """

    workload: str
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    #: free-form lines for the human-readable output
    notes: list[str] = field(default_factory=list)
    #: raw series kept in the run's record only
    details: dict[str, Any] = field(default_factory=dict)
    #: the traced run's spans, written out when the run ends
    tracer: Any = None

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())

    @property
    def ok_ratio(self) -> float:
        """Checked operations that passed: 1 - failed / attempted."""
        return 1.0 - self.failed / self.attempted
