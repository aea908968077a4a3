"""Shared plumbing: paths, thread pinning, run environment, tallies and timings.

Importing this module pins the BLAS and OpenMP thread pools before NumPy
loads, so import it before anything that imports NumPy.
"""
from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

#: BLAS / OpenMP threads per process.  One thread keeps runs steady on a
#: small shared machine; the CLI's own ``--jobs`` supplies the parallelism.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
WORK = HERE / ".work"
RESULTS = HERE / "results"

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

#: Fresh processes timed per set-up measurement (after one warm-up).
SETUP_SAMPLES = 9


class MissingProgram(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def require_program() -> None:
    missing = [p for p in (SRC / "truthquad" / "__init__.py", CONFIGS) if not p.exists()]
    if missing:
        raise MissingProgram(f"cannot find {', '.join(str(p.relative_to(ROOT)) for p in missing)}; "
                             "run the benchmark from the root of a truthquad checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + os.environ["PYTHONPATH"]
                                           if os.environ.get("PYTHONPATH") else "")


def _git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "truthquad").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version", "unknown")
    except (TypeError, KeyError):
        pass
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "blas_threads": BLAS_THREADS,
        "cli_jobs": NPROC,
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "seed": seed,
        "platform": platform.platform(),
    }


@dataclass
class Tally:
    """Attempts, failed operations and values off their reference.

    Problems are classed as ``integrity`` (a raise, a nonzero exit, a
    non-finite value, a broken identity, output that differs from the
    library or between runs) or ``accuracy`` (a value outside its reference
    tolerance, an MC mean outside the z-bound).  An integrity problem fails
    the operation and makes the run incorrect.  An accuracy problem is a
    measured error of a value the operation did return: it is counted in
    ``off_reference``, and ``flagged`` counts attempts with a problem of
    either class, the numerator of ``fail_frac``.
    """

    attempted: int = 0
    failed: int = 0
    off_reference: int = 0
    flagged: int = 0
    causes: Counter = field(default_factory=Counter)
    records: list = field(default_factory=list)

    def record(self, label: str, problems: list[tuple[str, str, str]]) -> None:
        """``problems`` holds (class, cause, detail) triples for one attempt."""
        self.attempted += 1
        classes = {klass for klass, _, _ in problems}
        self.failed += "integrity" in classes
        self.off_reference += "accuracy" in classes
        self.flagged += bool(problems)
        for klass, cause, detail in problems:
            self.causes[f"{klass}: {cause}"] += 1
            self.records.append({"op": label, "class": klass, "cause": cause, "detail": detail})

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def share(self, count: int) -> float:
        return count / self.attempted if self.attempted else math.nan


def percentile_ms(seconds: list[float], q: float) -> float:
    return float(statistics.quantiles(seconds, n=100, method="inclusive")[int(q) - 1]) * 1e3 \
        if len(seconds) > 1 else seconds[0] * 1e3


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_process(code: str, *args: str) -> tuple[float, str]:
    """Seconds from starting ``python -c code`` to its first line of output, and that line."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    _, err = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed with exit {proc.returncode}: {err.strip()[-500:]}")
    return elapsed, line.strip()


class SetupTimer:
    """Fresh-process set-up time, sampled at points spread over a run.

    A shared machine runs fast and slow for seconds at a time, so samples
    taken back to back all see one state; spread over the run, their median
    sees the same mix of states as the timed calls.  A warm-up process fixes
    the line every sample must print.
    """

    def __init__(self, code: str, *args: str):
        self.argv = (code, *args)
        _, self.line = fresh_process(*self.argv)
        self.samples: list[float] = []

    def sample_due(self, busy: float, seconds: float) -> None:
        """Take the next sample once ``busy`` has reached its share of ``seconds``."""
        if len(self.samples) < SETUP_SAMPLES and busy >= len(self.samples) * seconds / SETUP_SAMPLES:
            elapsed, line = fresh_process(*self.argv)
            if line != self.line:
                raise RuntimeError(f"set-up process printed {line!r}, earlier {self.line!r}")
            self.samples.append(elapsed)

    def median(self) -> float:
        """Median of SETUP_SAMPLES samples, taking any the run did not reach."""
        while len(self.samples) < SETUP_SAMPLES:
            self.sample_due(0.0, 0.0)
        return statistics.median(self.samples)
