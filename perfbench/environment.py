"""The machine a result was measured on, recorded with every result."""

from __future__ import annotations

import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_lapack() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return {}
    return {
        name: {k: deps[name].get(k) for k in ("name", "version", "openblas configuration")}
        for name in ("blas", "lapack")
        if name in deps
    }


def _git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def collect(root: Path) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "affinity_count": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas_lapack": _blas_lapack(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
    }


def cpu_jiffies() -> tuple[int, int] | None:
    """(steal, total) CPU time in jiffies over all CPUs, from /proc/stat."""
    try:
        first = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    except OSError:
        return None
    values = [int(v) for v in first[1:9]]  # user .. steal; guest is inside user
    return (values[7] if len(values) > 7 else 0), sum(values)


def steal_share(before, after) -> float | None:
    """Share of CPU time the hypervisor gave to other guests in between."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


# The reference kernel: a fixed mix of small LAPACK calls, fancy indexing
# and interpreter work, like the program's sampling loops, with a batched
# slogdet and inverse like its E-step.  On a shared host the speed of a
# CPU follows what the host's other tenants run: over a few minutes the
# same Gibbs eval took from 0.36 to 0.68 CPU s per instance.  The kernel,
# timed beside the program, is the yardstick that takes this out.  It runs
# once on each CPU the process may use, because the two CPUs of a virtual
# machine need not run at the same speed.
REFERENCE_ITERS = 1200  # per CPU
REFERENCE_S = 0.1  # scaled times are for a machine that runs the kernel in this many s
_rng = np.random.default_rng(0)
_REF_SMALL = _rng.random((2, 9, 9)) + 9.0 * np.eye(9)
_REF_IDX = _rng.integers(0, 9, size=64)
_REF_BATCH = _rng.random((64, 20, 20)) + 20.0 * np.eye(20)


def _kernel_once() -> float:
    acc = 0.0
    for i in range(REFERENCE_ITERS):
        acc += float(np.linalg.slogdet(_REF_SMALL)[1].sum())
        acc += float(_REF_SMALL[0][_REF_IDX, _REF_IDX].sum())
        acc += sum(j * 0.5 for j in range(30))
        if i % 120 == 0:
            acc += float(np.linalg.slogdet(_REF_BATCH)[1].sum() + np.linalg.inv(_REF_BATCH)[:, 0, 0].sum())
    return acc


def reference_kernel_s() -> float:
    """CPU seconds this process takes to run the reference kernel once on
    each CPU it may use.  The calling thread is pinned to one CPU at a time
    and gets its own CPU set back afterwards, so threads the program starts
    later are not pinned."""
    cpus = os.sched_getaffinity(0)
    start = time.process_time()
    acc = 0.0
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            acc += _kernel_once()
    finally:
        os.sched_setaffinity(0, cpus)
    spent = time.process_time() - start
    if acc != acc:  # keeps the loop's result live
        raise FloatingPointError("reference kernel produced NaN")
    return spent


class ReferenceClock:
    """Process CPU time of a call, summed over threads, and the same scaled
    to a machine that runs the reference kernel in REFERENCE_S seconds.

    The kernel runs once when the clock starts and again after every call;
    a call is scaled by the mean of the kernel times on either side."""

    def __init__(self):
        self.last = reference_kernel_s()
        self.kernel_s = [self.last]

    def measure(self, fn):
        """(fn's result, CPU s, scaled CPU s)"""
        start = time.process_time()
        result = fn()
        spent = time.process_time() - start
        before, self.last = self.last, reference_kernel_s()
        self.kernel_s.append(self.last)
        return result, spent, spent * REFERENCE_S / ((before + self.last) / 2)


def oversubscribed(env: dict) -> bool:
    """True when the CLI's default worker count (os.cpu_count()) exceeds the
    CPUs this process may run on, so the load would use more threads than
    cores."""
    return env["cpu_count"] > env["affinity_count"]
