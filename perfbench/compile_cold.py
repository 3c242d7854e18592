"""``compile-cold``: cold compiles and certifications from the grid.

Every op runs cold in one process with ``cache=False``.  A *compile* op
is ``iclang``, then one continuous-power ``Machine.run`` with WAR
checking off, then a check of the outputs against the benchsuite's
pure-Python reference.  A *certify* op is
``lint_sources(level="full", budget=40000)`` and must certify.

The seed draws 72 ops from the 6 benchmarks x 12 environments grid in
balanced strata, so that each draw costs about the same:

* the four light benchmarks (coremark, sha, crc, dijkstra) are compiled
  under all 12 environments; each WARio-side compile (the environments
  with the Loop Write Clusterer) takes a seeded unroll factor from
  Figure 6's sweep; each light benchmark also gets two seeded
  Ratchet-side and two seeded WARio-side certify ops;
* ``tiny-aes`` and ``picojpeg`` are pinned to ``plain``, ``ratchet``
  and ``wario-opt`` (unroll 6) compiles and a ``ratchet`` certify.
  Their WARio-side cells cost up to 35x the others, so letting the seed
  pick them would swing ops/s between seeds by more than any bound, and
  a short pass lets every op be timed in more passes.

The ``plain`` compiles normalise the ``gen.*`` metrics.
"""

from __future__ import annotations

import hashlib
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from common import (
    SRC, Outcome, Speed, Tally, geomean, latency_summary, median_setup, own_peak_rss_mb,
    steal_seconds,
)

BENCHES = ("coremark", "sha", "crc", "tiny-aes", "dijkstra", "picojpeg")
LIGHT = ("coremark", "sha", "crc", "dijkstra")
RATCHET_SIDE = ("ratchet", "r-pdg", "epilog-optimizer", "write-clusterer",
                "ratchet-summaries", "ratchet-opt")
WARIO_SIDE = ("loop-write-clusterer", "wario", "wario-expander",
              "wario-summaries", "wario-opt")
#: Figure 6's unroll sweep up to the paper's default N = 8; larger
#: factors cost up to 70 s per compile
FIG6_UNROLLS = (1, 2, 4, 6, 8)
#: the unroll factor of the pinned ``wario-opt`` compiles: they stay the
#: two costliest ops of every draw (so the p99 is not the seed's), at
#: about 0.7 s each rather than the 1.1-2 s of the default N = 8
PINNED_UNROLL = 6
#: the fixed ops of the two costly benchmarks
PINNED = tuple(
    op
    for bench in ("tiny-aes", "picojpeg")
    for op in (("compile", bench, "plain"), ("compile", bench, "ratchet"),
               ("compile", bench, "wario-opt", PINNED_UNROLL), ("certify", bench, "ratchet"))
)
LINT_BUDGET = 40000
#: ops between two speed probes (a probe costs about a third of the
#: median op)
PROBE_EVERY = 2


@dataclass(frozen=True)
class Op:
    kind: str                      #: "compile" or "certify"
    bench: str
    env: str
    unroll: Optional[int] = None

    @property
    def label(self) -> str:
        unroll = f"@{self.unroll}" if self.unroll else ""
        return f"{self.kind}:{self.bench}/{self.env}{unroll}"


@dataclass
class OpResult:
    op: Op
    seconds: float
    ok: bool
    reason: str = ""
    program: object = None
    cycles: int = 0
    checkpoints: int = 0
    text_size: int = 0
    #: what must repeat exactly: the image's sha256 and its run
    fingerprint: str = ""


def image_digest(program) -> str:
    digest = hashlib.sha256(bytes(program.initial_memory))
    for instr in program.instrs:
        digest.update(f"{instr.opcode} {instr.ops!r}\n".encode())
    return digest.hexdigest()


def draw_ops(seed: int) -> List[Op]:
    """The seeded op list (same seed, same list)."""
    rng = random.Random(f"compile-cold:{seed}")
    ops = [Op(*fixed) for fixed in PINNED]
    for bench in LIGHT:
        ops.append(Op("compile", bench, "plain"))
        ops += [Op("compile", bench, env) for env in RATCHET_SIDE]
        ops += [Op("compile", bench, env, rng.choice(FIG6_UNROLLS))
                for env in WARIO_SIDE]
        for side in (RATCHET_SIDE, RATCHET_SIDE, WARIO_SIDE, WARIO_SIDE):
            ops.append(Op("certify", bench, rng.choice(side)))
    rng.shuffle(ops)
    return ops


def execute(op: Op, bench) -> OpResult:
    """Run one op on ``bench`` (a benchsuite ``Benchmark``, whose
    reference the outputs are checked against), timing it in CPU seconds
    (the op runs in this process); failures are returned, never raised."""
    from repro.benchsuite import verify_outputs
    from repro.core import iclang
    from repro.core.lint import lint_sources
    from repro.emulator import Machine

    started = time.process_time()
    try:
        if op.kind == "certify":
            result = lint_sources(bench.source, op.env, name=bench.name,
                                  cache=False, level="full", budget=LINT_BUDGET)
            seconds = time.process_time() - started
            return OpResult(op, seconds, result.certified,
                            "" if result.certified else "not certified",
                            fingerprint=f"certified={result.certified}")
        program = iclang(bench.source, op.env, unroll_factor=op.unroll,
                         name=bench.name, cache=False)
        machine = Machine(program, war_check=False)
        stats = machine.run(max_instructions=bench.max_instructions)
        verify_outputs(bench, machine)
        reason = "" if stats.halted else "did not halt"
        seconds = time.process_time() - started
        return OpResult(
            op, seconds, not reason, reason, program, stats.cycles,
            stats.checkpoints, program.text_size,
            f"{image_digest(program)}:{stats.cycles}:{stats.checkpoints}",
        )
    except Exception as exc:  # counted in error_rate, never raised away
        return OpResult(op, time.process_time() - started, False,
                        f"{type(exc).__name__}: {exc}")


def war_violation(result: OpResult) -> str:
    """Re-run an instrumented image with the dynamic WAR checker on;
    returns why it is not clean, or ``""``."""
    from repro.benchsuite import get_benchmark
    from repro.emulator import Machine

    if result.program is None or result.op.env == "plain":
        return ""
    bench = get_benchmark(result.op.bench)
    machine = Machine(result.program, war_check=True)
    try:
        machine.run(max_instructions=bench.max_instructions)
    except Exception as exc:  # an emulator abort is a failed op too
        return f"WAR-checked run aborted: {type(exc).__name__}: {exc}"
    return "" if machine.war.clean else "dynamic WAR violation"


def gen_metrics(results: List[OpResult]) -> Dict[str, float]:
    """Figure 4 / Table 2 / Table 1 quantities of the compiled images."""
    plain = {r.op.bench: r for r in results
             if r.op.kind == "compile" and r.op.env == "plain" and r.ok}
    instrumented = [r for r in results
                    if r.op.kind == "compile" and r.op.env != "plain" and r.ok
                    and r.op.bench in plain]
    return {
        "gen.norm_cycles": geomean(
            [r.cycles / plain[r.op.bench].cycles for r in instrumented]),
        "gen.norm_text": geomean(
            [r.text_size / plain[r.op.bench].text_size for r in instrumented]),
        "gen.checkpoints": float(sum(r.checkpoints for r in instrumented)),
    }


class Workload:
    name = "compile-cold"

    def __init__(self, seed: int):
        self.seed = seed
        self.ops: List[Op] = []
        self.benches: Dict[str, object] = {}

    def setup(self) -> None:
        """Start a fresh interpreter that imports the toolchain (the cold
        start every ``repro compile`` pays), draw the ops, compute the
        references, and run one warm-up compile + certify so lazy imports
        are not timed."""
        from repro.benchsuite import get_benchmark

        subprocess.run(
            [sys.executable, "-c", "import repro.core.lint, repro.emulator, repro.benchsuite"],
            env=dict(os.environ, PYTHONPATH=SRC), check=True, timeout=120,
        )
        self.ops = draw_ops(self.seed)
        self.benches = {}
        for name in BENCHES:
            bench = get_benchmark(name)
            expected = bench.expected()
            self.benches[name] = replace(bench, reference=lambda e=expected: e)
        execute(Op("compile", "crc", "wario-opt"), self.benches["crc"])
        execute(Op("certify", "crc", "wario-opt"), self.benches["crc"])

    def one_pass(self, check_war: bool = False, keep_images: bool = False,
                 speed: Optional[Speed] = None) -> List[OpResult]:
        """Every op once.  ``check_war`` also runs each instrumented image
        with the dynamic WAR checker, outside the op's time; images are
        dropped after the op unless ``keep_images``; ``speed`` gets a
        probe reading every :data:`PROBE_EVERY` ops and after the last."""
        results = []
        for index, op in enumerate(self.ops):
            if speed is not None and index % PROBE_EVERY == 0:
                speed.take()
            result = execute(op, self.benches[op.bench])
            if check_war and result.ok:
                result.reason = war_violation(result)
                result.ok = not result.reason
            if not keep_images:
                result.program = None
            results.append(result)
        if speed is not None:
            speed.take()
        return results

    def run(self, seconds: float, tracer=None) -> Outcome:
        setup_s, setup_all = median_setup(self.setup)
        if tracer is not None:
            return self._traced(seconds, tracer)
        tally = Tally()
        passes: List[List[OpResult]] = []
        factors: List[float] = []
        probes: List[List[float]] = []
        started, steal = time.perf_counter(), steal_seconds()
        last = 0.0
        # another pass only while it is expected to end in time
        while len(passes) < 2 or time.perf_counter() - started + last <= seconds:
            begun, speed = time.perf_counter(), Speed()
            passes.append(self.one_pass(check_war=not passes, speed=speed))
            factors.append(speed.factor())
            probes.append(speed.readings)
            last = time.perf_counter() - begun
        wall, steal = time.perf_counter() - started, steal_seconds() - steal
        first = passes[0]
        for results in passes:
            for result, reference in zip(results, first):
                reason = result.reason
                if result.ok and result.fingerprint != reference.fingerprint:
                    reason = "image or run differs between passes"
                tally.record(not reason, f"{result.op.label}: {reason}")
        # each op's CPU time scaled by its pass's speed, median over passes
        latencies = [
            statistics.median(r.seconds * factor for r, factor in zip(runs, factors)) * 1000.0
            for runs in zip(*passes)
        ]
        lat = latency_summary(latencies)
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(latencies) / (sum(latencies) / 1000.0),
            "latency_ms.p50": lat["p50"],
            "latency_ms.p99": lat["p99"],
            "peak_rss_mb": own_peak_rss_mb(),
        }
        gen = gen_metrics(first)
        metrics.update(gen)
        fingerprint = {
            "ops": [op.label for op in self.ops],
            "images": [r.fingerprint for r in first],
            "gen": gen,
        }
        details = {
            "passes": len(passes), "ops_per_pass": len(self.ops),
            "latency_samples": lat, "setup_s_all": setup_all,
            "error_rate": tally.error_rate, "measure_wall_s": wall,
            "measure_cpu_s": sum(r.seconds for results in passes for r in results),
            "measure_steal_s": steal, "speed_factors": factors,
            "probe_s": probes, "op_cpu_s": [[r.seconds for r in results] for results in passes],
        }
        return Outcome(tally, metrics, fingerprint, details)

    def _traced(self, seconds: float, tracer) -> Outcome:
        from layers import Installed, warcheck_overhead

        tally = Tally()
        started = time.perf_counter()
        # the checked pass warms up; the untraced baseline is the pass
        # after it, and a pass's time is its ops' scaled CPU time
        checked = self.one_pass(check_war=True, keep_images=True)
        speed = Speed()
        untraced = self.one_pass(speed=speed)
        untraced_s = sum(result.seconds for result in untraced) * speed.factor()
        installed = Installed(tracer).install()
        passes, last = [], 0.0
        try:
            # another pass only while it is expected to end in time
            while not passes or time.perf_counter() - started + last <= seconds:
                begun, op_s, speed = time.perf_counter(), 0.0, Speed()
                for index, op in enumerate(self.ops):
                    if index % PROBE_EVERY == 0:
                        speed.take()
                    tracer.op = len(passes) * len(self.ops) + index
                    span = tracer.begin(f"op.{op.kind}")
                    result = execute(op, self.benches[op.bench])
                    tracer.end(span)
                    op_s += result.seconds
                    tally.record(result.ok, f"{op.label}: {result.reason}")
                speed.take()
                passes.append(op_s * speed.factor())
                last = time.perf_counter() - begun
        finally:
            installed.remove()
        for result in checked + untraced:
            tally.record(result.ok, f"{result.op.label}: {result.reason}")
        details = {"traced_passes": len(passes), "untraced_pass_s": untraced_s,
                   "traced_pass_s": passes}
        metrics = {
            "emulator.warcheck_overhead": warcheck_overhead(
                (r.program, self.benches[r.op.bench].max_instructions)
                for r in checked if r.program is not None),
            "trace.overhead_s": sum(passes) / len(passes) - untraced_s,
        }
        return Outcome(tally, metrics, {}, details, units=len(passes))
