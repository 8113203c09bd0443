"""Shared plumbing of the benchmark: statistics, environment, processes.

Everything here is program-agnostic: percentile rules, the scrubbed
environment every workload runs under, a spawned-server handle that is
torn down on every exit path, and ``/proc`` readers for CPU and peak RSS.
"""

from __future__ import annotations

import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: Checkout root (the directory holding ``src/`` and ``perfbench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space of every run, inside the checkout (see ``.gitignore``).
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

#: Percentiles tried, highest first, by :func:`tail_percentile`.
TAIL_LADDER = (99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10
#: Share of a run's windows that its timings are taken from (see
#: :func:`fastest`).
FAST_SHARE = 0.25


# ------------------------------------------------------------- statistics
def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (``pct`` in 0..100)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples rank strictly above the ``pct`` rank."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float]:
    """``(pct, value)``: the highest ladder percentile with at least
    :data:`MIN_BEYOND` samples beyond it.

    The ladder stops at p99 so that a metric keeps one meaning while the
    sample count of a run varies; below ten samples beyond p50 the median
    itself is returned.
    """
    for pct in TAIL_LADDER:
        if samples_beyond(len(samples), pct) >= MIN_BEYOND:
            return pct, percentile(samples, pct)
    return 50.0, percentile(samples, 50.0)


def fastest(items: Sequence, key) -> List:
    """The fastest :data:`FAST_SHARE` of ``items`` by ``key`` (at least one).

    The host's speed swings by up to ~50% in phases of seconds, so the
    timings of a run are taken from its fast phases (see README.md).
    """
    ordered = sorted(items, key=key)
    return ordered[: max(1, round(len(ordered) * FAST_SHARE))]


#: Iterations of the pure-Python loop :func:`probe` times.
PROBE_ITERATIONS = 10_000
#: The probe's time in a fast phase of the 2-core reference host (Xeon VM,
#: Python 3.11); normalized timings read as times on that host.
PROBE_REFERENCE_S = 0.00055


def probe() -> float:
    """Best of three timings of a fixed pure-Python loop (~0.5 ms)."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for value in range(PROBE_ITERATIONS):
            total += value * value % 7
        best = min(best, time.perf_counter() - started)
    return best


class HostSpeed:
    """The host's speed during a run, from probes taken between operations
    on the core the run is pinned to.

    Slow phases of the shared host can outlast a whole run (admit latency
    1.75x its usual in every window of a 30 s run), which no choice of
    windows inside the run can undo.  The probe slows with the host, so
    timings, taken from the run's fast phases, are scaled by
    ``PROBE_REFERENCE_S / mean of the fastest quarter of the probes``: the
    same fast-phase statistic applied to the probe.
    """

    def __init__(self) -> None:
        self.probes: List[float] = []

    def sample(self) -> None:
        self.probes.append(probe())

    def fast_probe(self) -> float:
        if not self.probes:
            self.sample()
        return statistics.mean(fastest(self.probes, key=float))

    def factor(self) -> float:
        """Multiply a duration by this (divide a rate) to normalize it."""
        return PROBE_REFERENCE_S / self.fast_probe()


def pin_to_one_cpu() -> None:
    """Pin this process (and what it spawns afterwards) to one core.

    Client, server and pool worker then share one core and its probe: the
    host's noise is per core, and a closed loop left to the scheduler
    shares a core in some runs and not in others (cross-core wake-ups
    measured ~25-45% slower on a 2-core VM), which made throughput bimodal.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def self_time(span: Tuple[float, float], children: Sequence[Tuple[float, float]]) -> float:
    """Duration of ``span`` minus the part of it its children cover.

    Children are clipped to the span and overlapping children count once.
    """
    start, end = span
    covered = 0.0
    cursor = start
    for child_start, child_end in sorted(children):
        lo = max(child_start, cursor)
        hi = min(child_end, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (end - start) - covered


# ------------------------------------------------------------ environment
def scrubbed_env(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """The inherited environment minus every ``REPRO_*`` knob, plus the
    workload's own knobs, with ``src`` importable and temp files kept in
    the checkout."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = SCRATCH
    env.update(extra or {})
    return env


def scrub_own_env() -> None:
    """Apply :func:`scrubbed_env` to this process (in-process workloads)."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["TMPDIR"] = SCRATCH
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def make_run_dir(tag: str) -> str:
    """A fresh directory under :data:`SCRATCH` (relative path, kept short
    because it also holds the server's Unix socket)."""
    os.makedirs(SCRATCH, exist_ok=True)
    for index in range(10_000):
        name = os.path.join(".perfbench_tmp", f"{tag}{os.getpid()}-{index}")
        try:
            os.mkdir(os.path.join(ROOT, name))
        except FileExistsError:
            continue
        return name
    raise RuntimeError("no free scratch directory name")


def remove_tree(path: str) -> None:
    """Delete a scratch directory (best-effort)."""
    shutil.rmtree(path, ignore_errors=True)


# ------------------------------------------------------------------ /proc
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat") as handle:
        raw = handle.read()
    # The command name may contain spaces; fields resume after its ')'.
    return raw[raw.rindex(")") + 2 :].split()


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a live process (all its threads)."""
    fields = _stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def session_pids(session: int) -> List[int]:
    """Live processes of one session (a spawned server and its pool)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = _stat_fields(int(entry))
            # Zombies are dead already; an orphaned one may never be reaped.
            if int(fields[3]) == session and fields[0] != "Z":
                pids.append(int(entry))
        except (OSError, ValueError, IndexError):
            continue
    return pids


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process in MiB (0.0 when it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# ----------------------------------------------------------------- server
class SpawnedServer:
    """A verification server started by :mod:`perfbench.serve` in its own
    session, so that it and its pool workers can be killed as one group.

    Use as a context manager: leaving the block (normally, by exception or
    by a signal turned into ``SystemExit``) asks the server to shut down,
    then kills the whole session and reaps it.
    """

    def __init__(
        self,
        run_dir: str,
        env_extra: Optional[Dict[str, str]] = None,
        trace_dir: Optional[str] = None,
        cpus: Optional[Sequence[int]] = None,
        start_timeout: float = 60.0,
    ) -> None:
        self.run_dir = run_dir
        self.socket_path = os.path.join(run_dir, "s.sock")
        self.store_dir = os.path.join(ROOT, run_dir, "store")
        self.env = scrubbed_env(env_extra)
        self.trace_dir = trace_dir
        self.cpus = cpus
        self.start_timeout = start_timeout
        self.process: Optional[subprocess.Popen] = None
        self._log = None

    def __enter__(self) -> "SpawnedServer":
        command = [
            sys.executable,
            os.path.join(ROOT, "perfbench", "serve.py"),
            "--socket",
            self.socket_path,
            "--store",
            self.store_dir,
        ]
        if self.trace_dir:
            command += ["--trace-dir", self.trace_dir]
        self._log = open(os.path.join(ROOT, self.run_dir, "server.log"), "wb")
        self.process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            if self.cpus:
                os.sched_setaffinity(self.process.pid, self.cpus)
            self._wait_for_socket()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _wait_for_socket(self) -> None:
        """Poll until the socket accepts, bounded by ``start_timeout``."""
        deadline = time.monotonic() + self.start_timeout
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode} before listening"
                    f" (log: {self.run_dir}/server.log)"
                )
            connection = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                connection.connect(self.socket_path)
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError("server did not listen within the start timeout")
                time.sleep(0.02)
            finally:
                connection.close()

    @property
    def pid(self) -> int:
        return self.process.pid

    def peak_rss_mb(self) -> float:
        """Max ``VmHWM`` over the server and its pool workers."""
        return max((peak_rss_mb(pid) for pid in session_pids(self.pid)), default=0.0)

    def shutdown(self, client=None, timeout: float = 20.0) -> None:
        """Ask for a clean exit (so traced processes flush), then make sure."""
        if self.process is None or self.process.poll() is not None:
            return
        if client is not None:
            try:
                client.shutdown()
            except Exception:  # the server may already be going down
                pass
            client.close()
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
        self._kill_session()

    def _kill_session(self) -> None:
        if self.process is None:
            return
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(self.process.pid, sig)
            except ProcessLookupError:
                break
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if self.process.poll() is not None and not session_pids(self.process.pid):
                    return
                time.sleep(0.02)
        self.process.wait(timeout=10.0)

    def __exit__(self, *_exc) -> None:
        try:
            self._kill_session()
            # Pool workers re-parent to init when the server dies first;
            # they are still in the session, so sweep it once more.
            leftovers = session_pids(self.process.pid) if self.process else []
            for pid in leftovers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        finally:
            if self._log is not None:
                self._log.close()
                self._log = None


def install_signal_exits() -> None:
    """Turn SIGTERM/SIGHUP into ``SystemExit`` so ``finally`` blocks (and
    server teardown) run when the benchmark itself is stopped."""

    def _exit(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _exit)
    signal.signal(signal.SIGHUP, _exit)
