"""Regenerate the emulator golden fixtures.

Run from the repository root::

    PYTHONPATH=src python tests/golden/generate_emulator.py

``emulator_runs.json`` pins what one emulated run observes — every
``ExecutionStats`` field, the final registers, the sha256 of the 1 MiB
NVM image and the dynamic WAR violations — for each of the six
benchmarks under ``plain``, ``wario``, ``ratchet`` and ``wario-opt``
and four supplies: continuous power, a fixed power-on period, a
two-point failure schedule and a periodic interrupt load.
``event_traces.json`` pins the full :class:`~repro.emulator.EventTrace`
of a few traced runs.  ``tests/test_emulator_golden.py`` replays every
case and diffs the records, so the interpreter can be restructured
without a second interpreter to compare against.

The fixtures were recorded before the reference interpreter was
removed.  Only regenerate them for a deliberate semantic change to the
emulator (cost model, checkpoint runtime, statistics), never to paper
over a difference.
"""

import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from dataclasses import replace

from repro.benchsuite import BENCHMARKS, compile_benchmark, get_benchmark
from repro.core.pipeline import ENVIRONMENTS
from repro.emulator import (
    EmulationError,
    EventTrace,
    FixedPeriodPower,
    Machine,
    SchedulePower,
)

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))
RUNS_PATH = os.path.join(GOLDEN_DIR, "emulator_runs.json")
TRACES_PATH = os.path.join(GOLDEN_DIR, "event_traces.json")

ENVS = ("plain", "wario", "ratchet", "wario-opt")

#: supply name -> (power supply factory, interrupt interval, instruction cap).
#: The fixed period fits every instrumented region (the largest, dijkstra's,
#: is ~25k cycles); ``plain`` programs longer than it restart from reset
#: until the cap stops them.  The schedule fails at 15k cycles (inside
#: every benchmark) and again 2.5k cycles after the boot + restore.
SUPPLIES = {
    "continuous": (lambda: None, None, None),
    "fixed-30000": (lambda: FixedPeriodPower(30_000), None, 250_000),
    "schedule-15000-3540": (lambda: SchedulePower((15_000, 3_540)), None, None),
    "interrupts-250": (lambda: None, 250, None),
}


def run_cases():
    for bench in sorted(BENCHMARKS):
        for env in ENVS:
            for supply in SUPPLIES:
                yield f"{bench}/{env}/{supply}", bench, env, supply


def _stats_record(stats) -> dict:
    record = {
        name: getattr(stats, name)
        for name in ("instructions", "cycles", "checkpoints", "power_failures",
                     "boot_cycles", "reexecuted_cycles", "interrupts",
                     "halted", "final_region_cycles")
    }
    record["checkpoint_causes"] = dict(sorted(stats.checkpoint_causes.items()))
    record["call_counts"] = dict(sorted(stats.call_counts.items()))
    sizes = json.dumps(stats.region_sizes).encode()
    record["region_sizes"] = {
        "count": len(stats.region_sizes),
        "sum": sum(stats.region_sizes),
        "sha256": hashlib.sha256(sizes).hexdigest(),
    }
    return record


def machine_record(machine: Machine, error: str) -> dict:
    record = {
        "error": error,
        "stats": _stats_record(machine.stats),
        "regs": dict(sorted(machine.regs.items())),
        "pc": machine.pc,
        "nvm_sha256": hashlib.sha256(machine.memory).hexdigest(),
    }
    if machine.war is not None:
        record["violations"] = [
            f"0x{v.address:x} pc={v.pc} fn={v.function} "
            f"region={v.region_index} loc={v.loc}"
            for v in machine.war.violations
        ]
    return record


def run_case(bench_name: str, env: str, supply: str, war_check: bool = True,
             cache=False) -> dict:
    bench = get_benchmark(bench_name)
    program = compile_benchmark(bench, env, None, cache=cache)
    power, interval, cap = SUPPLIES[supply]
    machine = Machine(program, war_check=war_check, interrupt_interval=interval)
    error = ""
    try:
        machine.run(power=power(), max_instructions=cap or bench.max_instructions)
    except EmulationError as exc:
        error = f"{type(exc).__name__}: {exc}"
    return machine_record(machine, error)


def trace_cases():
    """(name, bench, env, power factory, interrupt interval)."""
    yield "crc/wario/continuous", "crc", "wario", lambda: None, None
    yield ("crc/wario/schedule-5000-2000-3000", "crc", "wario",
           lambda: SchedulePower((5000, 2000, 3000)), None)
    yield ("xcall/wario-summaries+drop-epilog-mask/interrupts-3", "xcall",
           replace(ENVIRONMENTS["wario-summaries"],
                   name="wario-summaries+drop-epilog-mask",
                   drop_epilog_mask=True),
           lambda: SchedulePower((3000,)), 3)


def run_trace_case(bench_name, env, power, interval, cache=False) -> dict:
    bench = get_benchmark(bench_name)
    program = compile_benchmark(bench, env, None, cache=cache)
    trace = EventTrace()
    machine = Machine(program, war_check=True, trace=trace,
                      interrupt_interval=interval)
    machine.run(power=power(), max_instructions=bench.max_instructions)
    return {
        "events": [list(event) for event in trace.as_tuples()],
        "run": machine_record(machine, ""),
    }


def generate():
    runs = {name: run_case(bench, env, supply)
            for name, bench, env, supply in run_cases()}
    traces = {name: run_trace_case(bench, env, power, interval)
              for name, bench, env, power, interval in trace_cases()}
    return runs, traces


if __name__ == "__main__":
    runs, traces = generate()
    for path, data in ((RUNS_PATH, runs), (TRACES_PATH, traces)):
        with open(path, "w") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}")
