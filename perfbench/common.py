"""Shared measurement helpers: timing summaries, process counters, env,
the machine-speed gauge and vCPU placement."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

__all__ = [
    "END_TO_END_UNITS",
    "Checker",
    "Gauge",
    "GaugeSampler",
    "cpus",
    "local_factors",
    "on_cpu",
    "dir_bytes",
    "environment",
    "latency_summary",
    "peak_rss_mb",
    "wchar",
]

#: End-to-end metric name -> unit (the ``end_to_end`` list of BENCHMARK.json).
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "point_ops_per_s": "1/s",
    "range_ops_per_s": "1/s",
    "point_fpr": "ratio",
    "range_fpr": "ratio",
    "filter_bits_per_key": "bits/key",
    "write_amp": "ratio",
    "space_amp": "ratio",
}


#: Gauge kernel time at the reference speed.  Reported timings are scaled
#: to the speed at which the kernel takes this long.
GAUGE_REFERENCE_S = 0.003

_GAUGE_DOC = [{"k": i, "v": [i, i * 2, "x" * 8], "s": str(i)} for i in range(400)]


class _GaugeObject:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def f(self, x: int) -> int:
        return (self.a * x + self.b) & 0xFFFF


def _gauge_kernel() -> None:
    """Fixed interpreter-bound work: JSON, list sorting, method calls, dicts."""
    json.loads(json.dumps(_GAUGE_DOC))
    items = [(i * 7919) % 1000 for i in range(6000)]
    items.sort()
    obj, counts = _GaugeObject(3, 5), {}
    for i in range(3000):
        counts[obj.f(i)] = counts.get(obj.f(i), 0) + 1


def gauge_once() -> float:
    """CPU seconds of one kernel run: the vCPU's speed, not its share."""
    start = time.thread_time()
    _gauge_kernel()
    return time.thread_time() - start


class Gauge:
    """Machine-speed gauge: a fixed kernel timed beside the workload.

    On the shared virtual machine this benchmark was tuned on, each vCPU
    switches between a fast and a slow state (about 1.5x apart) every few
    seconds, independently of the other vCPU, and interpreter-bound code,
    which most of the program is, slows the most.  A fixed
    interpreter-bound kernel that uses no code of the program slows with
    it: over twelve 8-second windows a batch of store lookups spread 34 %
    while its ratio to this kernel spread 5 %.  Timings are therefore
    multiplied by :meth:`factor`, the reference kernel time over the
    kernel's median time on the same vCPU in the same stretch, which
    scales them to one reference speed without touching what the program
    itself costs.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, CPU seconds)

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            self.samples.append((time.perf_counter(), gauge_once()))

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int = 0) -> float:
        """Reference over measured kernel time, over ``samples[since:]``."""
        return GAUGE_REFERENCE_S / statistics.median(d for _, d in self.samples[since:])

    def array(self) -> np.ndarray:
        return np.array(self.samples, dtype=np.float64).reshape(-1, 2)


def cpus() -> tuple[int, int]:
    """The vCPUs for the store and for the load generator (equal on 1 CPU)."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[-1]


@contextlib.contextmanager
def on_cpu(cpu: int):
    """Run the calling thread (and what it starts) on one vCPU."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


class GaugeSampler:
    """The gauge kernel in a child process on one vCPU, at a low duty cycle.

    Measures the speed of the vCPU another process (the server) runs on
    while it runs: one kernel run (about 3 ms) every ``period`` seconds.
    The kernel's CPU time, unlike its wall time, does not grow when the
    server takes the vCPU from it.
    """

    def __init__(self, cpu: int, period: float) -> None:
        script = Path(__file__).resolve().parent / "gauge.py"
        with on_cpu(cpu):
            self.proc = subprocess.Popen(
                [sys.executable, str(script), str(period)],
                stdout=subprocess.PIPE,
                text=True,
            )
        if self.proc.stdout.readline().strip() != "ready":
            raise RuntimeError(f"gauge sampler did not start: {self.stop()}")

    def stop(self) -> np.ndarray:
        """Stop sampling; returns ``(start, CPU seconds)`` rows, in order."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        out = self.proc.communicate(timeout=60)[0]
        rows = [tuple(map(float, line.split())) for line in out.splitlines() if line]
        return np.array(rows, dtype=np.float64).reshape(-1, 2)


def local_factors(samples: np.ndarray, at: np.ndarray, window: float) -> np.ndarray:
    """Gauge factor at each time in ``at``: from the samples within ``window``.

    A vCPU's speed state lasts seconds, so each timing is scaled by the
    gauge around it rather than by one figure for the whole load.  A time
    with no sample that near takes the median of all samples.
    """
    t, d = samples[:, 0], samples[:, 1]
    lo = np.searchsorted(t, at - window)
    hi = np.searchsorted(t, at + window, side="right")
    whole = np.median(d)
    return np.array(
        [GAUGE_REFERENCE_S / (np.median(d[a:b]) if b > a else whole) for a, b in zip(lo, hi)]
    )


def latency_summary(seconds: np.ndarray) -> dict[str, float]:
    """p50/p99 of per-call latencies, in ms, with the sample count."""
    ms = np.asarray(seconds, dtype=np.float64) * 1e3
    return {
        "p50_ms": float(np.percentile(ms, 50)),
        "p99_ms": float(np.percentile(ms, 99)),
        "samples": int(ms.size),
    }


class Checker:
    """Counts attempted operations and wrong answers against ground truth.

    ``flip`` corrupts the first ``flip`` answers it sees before checking
    them, which proves in the benchmark's own tests that a wrong answer is
    counted.
    """

    def __init__(self, flip: int = 0) -> None:
        self.attempted = 0
        self.failed = 0
        self._flip = flip

    def check(self, got, expected) -> None:
        """A batch of boolean answers against their expected values."""
        got = np.array(got, dtype=bool)
        expected = np.asarray(expected, dtype=bool)
        if self._flip and got.size:
            n = min(self._flip, got.size)
            got[:n] = ~got[:n]
            self._flip -= n
        self.attempted += int(expected.size)
        if got.shape != expected.shape:
            self.failed += int(expected.size)
        else:
            self.failed += int(np.count_nonzero(got != expected))

    def check_equal(self, got, expected) -> None:
        """One operation whose answer must equal ``expected`` exactly."""
        wrong = got != expected
        if self._flip:
            wrong, self._flip = not wrong, self._flip - 1
        self.attempted += 1
        self.failed += int(wrong)

    def error(self, n: int = 1) -> None:
        """``n`` operations that raised or were refused."""
        self.attempted += n
        self.failed += n


def _status_kb(pid: int | str, field: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no {field}")


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    return _status_kb(pid, "VmHWM") / 1024.0


def wchar(pid: int | str = "self") -> int:
    """Bytes the process passed to write calls so far (``/proc/<pid>/io``)."""
    with open(f"/proc/{pid}/io", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/io has no wchar")


def dir_bytes(path: Path) -> int:
    """Bytes of every regular file under ``path``."""
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _source_digest(root: Path) -> str:
    """Digest of the program's source tree (the checkout is not a git repo)."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = root / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def environment(root: Path) -> dict:
    """Python/NumPy versions, CPU count, commit and source digest."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        "argv": sys.argv[1:],
    }


def loadavg() -> list[float]:
    return [float(x) for x in os.getloadavg()]
