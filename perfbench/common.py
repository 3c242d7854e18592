"""Helpers shared by the workloads: statistics, clocks, memory, op accounting.

Every time the benchmark reports is CPU time at a reference speed.

* CPU time: the seconds the program's processes spent running, read from
  the kernel's per-process CPU clocks.  On a virtual machine whose host
  preempts it (the guest sees this as *steal* time), a slice the host
  takes away leaves these clocks standing while the wall clock runs on.
* At a reference speed: on a host shared with other tenants, a CPU
  second does not buy a fixed amount of work either; the same code ran
  up to 1.6x slower for minutes at a time on the 2-vCPU Xeon VM this
  benchmark was tuned on.  So the workloads run a fixed pure-Python
  :func:`probe` between units of work, and scale each unit's CPU time by
  :data:`PROBE_REFERENCE_S` over the probe's mean CPU time around it
  (:class:`Speed`).  The probe is the benchmark's own code, so making
  the program faster moves the figures and a busy neighbour mostly does
  not.  Over six minutes of such drift, the CPU times of a fixed
  tiny-aes compile, crc emulation and sha certification varied by 31-39%
  (IQR / median of 3-second medians), and by 6-14% scaled.

Raw CPU times, wall times and the steal seen during a run are kept in
the report for comparison.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

#: the checkout root: this file lives in ``<root>/perfbench/``
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: everything a run leaves behind (listed in the root ``.gitignore``)
WORK = os.path.join(ROOT, ".perfbench")

#: set-up runs this many times per run; ``setup_s`` is the median
SETUP_REPEATS = 5
#: speed probes before and after each set-up (a few, because one reading
#: falls in either of the host's two speed states)
SETUP_PROBES = 5


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q
    lower = int(pos)
    upper = min(lower + 1, len(data) - 1)
    return data[lower] + (data[upper] - data[lower]) * (pos - lower)


def geomean(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def latency_summary(samples_ms: Sequence[float]) -> Dict[str, float]:
    """p50/p99 with the number of samples at and beyond each."""
    n = len(samples_ms)
    return {
        "p50": percentile(samples_ms, 0.50),
        "p99": percentile(samples_ms, 0.99),
        "samples": n,
        "beyond_p50": n - math.ceil(0.50 * n),
        "beyond_p99": n - math.ceil(0.99 * n),
    }


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_seconds() -> float:
    """CPU seconds of this process and of its children that have ended
    and been waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def process_clock(pid: int) -> int:
    """The CPU-time clock of another live process (``CLOCK_PROCESS_CPUTIME_ID``
    of ``pid``, which covers all its threads)."""
    return ((~pid) << 3) | 2


def steal_seconds() -> float:
    """Steal time summed over the CPUs since boot (0 where not reported)."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    ticks = int(fields[8]) if len(fields) > 8 else 0
    return ticks / os.sysconf("SC_CLK_TCK")


class _Op:
    __slots__ = ("code", "dst", "src", "imm")

    def __init__(self, code: str, dst: int, src: int, imm: int):
        self.code, self.dst, self.src, self.imm = code, dst, src, imm


_PROBE_PROGRAM = (
    _Op("addi", 1, 1, 1), _Op("mul", 2, 1, 1), _Op("andi", 2, 2, 255),
    _Op("st", 2, 1, 0), _Op("ld", 3, 1, 0), _Op("add", 4, 4, 3), _Op("blt", 1, 5, 0),
)


def _probe_arith(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def _probe_objects(n: int) -> int:
    total, table, strings = 0, {}, []
    for i in range(n):
        key = i % 997
        table[key] = table.get(key, 0) + i
        strings.append(str(i))
        total ^= hash(strings[-1]) & 0xFFFF
        if len(strings) > 500:
            strings.clear()
    return total


def _probe_dispatch(limit: int) -> int:
    """A register machine stepping a fixed loop, the way an interpreter
    (and the program's emulator) dispatches."""
    regs, mem, pc, steps = [0] * 8, {}, 0, 0
    regs[5] = limit
    program = _PROBE_PROGRAM
    while pc < len(program):
        op = program[pc]
        steps += 1
        if op.code == "addi":
            regs[op.dst] = regs[op.src] + op.imm
        elif op.code == "mul":
            regs[op.dst] = regs[op.src] * regs[op.imm]
        elif op.code == "andi":
            regs[op.dst] = regs[op.src] & op.imm
        elif op.code == "add":
            regs[op.dst] = regs[op.dst] + regs[op.src]
        elif op.code == "st":
            mem[regs[op.src] & 1023] = regs[op.dst]
        elif op.code == "ld":
            regs[op.dst] = mem.get(regs[op.src] & 1023, 0)
        elif op.code == "blt" and regs[op.dst] < regs[op.src]:
            pc = 0
            continue
        pc += 1
    return steps


#: the probe's CPU seconds at the reference speed (about its mean
#: between units of work on the tuning host); scaled times read as CPU
#: time on that host
PROBE_REFERENCE_S = 0.013


def probe() -> float:
    """Run the fixed speed probe (arithmetic, small-object churn and
    interpreter-style dispatch in about equal shares); return its CPU
    seconds.  The garbage collector is paused, so the size of the
    workload's heap does not show in the probe."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.process_time()
        _probe_arith(75000)
        _probe_objects(10000)
        _probe_dispatch(1500)
        return time.process_time() - started
    finally:
        if was_enabled:
            gc.enable()


class Speed:
    """Probe readings taken between the units of one stretch of work."""

    def __init__(self):
        self.readings: List[float] = []

    def take(self, times: int = 1) -> None:
        self.readings.extend(probe() for _ in range(times))

    def factor(self) -> float:
        """Reference seconds per CPU second in this stretch.  The mean,
        not the median, of the readings: the host's speed flips between
        a fast and a slow state, a stretch of work takes as long as the
        share of each state in it, and the median of two clusters jumps
        from one to the other.  The highest and lowest tenth are
        dropped."""
        readings = sorted(self.readings)
        cut = len(readings) // 10
        return PROBE_REFERENCE_S / statistics.mean(readings[cut:len(readings) - cut])


def median_setup(setup: Callable[[], None]) -> Tuple[float, List[float]]:
    """Run ``setup`` :data:`SETUP_REPEATS` times, probing the speed around
    each; return the median scaled CPU seconds and every timing."""
    timings = []
    for _ in range(SETUP_REPEATS):
        speed = Speed()
        speed.take(SETUP_PROBES)
        started = cpu_seconds()
        setup()
        timings.append(cpu_seconds() - started)
        speed.take(SETUP_PROBES)
        timings[-1] *= speed.factor()
    return statistics.median(timings), timings


def revision() -> str:
    """The git revision if the checkout is a repository, else a digest of
    the program's sources (the checkout the benchmark runs in may not be)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    digest.update(name.encode() + b"\0" + handle.read())
    return "src-" + digest.hexdigest()[:12]


@dataclass
class Tally:
    """Attempted and failed operations, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    tally: Tally
    #: end-to-end (untraced) or per-layer (traced) metric values
    metrics: Dict[str, float]
    #: deterministic outputs compared across runs of the same seed
    fingerprint: Dict[str, object]
    #: everything else worth recording (sample counts, timings)
    details: Dict[str, object] = field(default_factory=dict)
    #: traced runs: how many traced units the spans and counters cover
    units: int = 1
