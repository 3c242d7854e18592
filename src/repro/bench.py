"""``python -m repro bench`` — the toolchain's own performance harness.

Measures the three costs the engineering work targets and emits one JSON
blob (``BENCH_<rev>.json``) per revision so regressions show up as a
diff:

* **compile** — seconds to compile each benchmark per environment, with
  every cache layer disabled (the honest front-to-back pipeline cost);
* **emulation** — emulated instructions per second on each benchmark
  (continuous power), with WAR checking off and on (the mode
  fault-injection campaigns use); every timing is repeated and reported
  as min and median, plus the WAR-checking overhead;
* **elision** — executed-checkpoint and total-cycle deltas of the
  certificate-guided elision environments (``wario-opt``,
  ``ratchet-opt``) against their baselines, with the statically elided
  count per cell;
* **eval** — wall-clock seconds of a full figure regeneration in a
  subprocess, cold (empty cache directory) then warm (same directory),
  plus the resulting speedup.

``--quick`` shrinks every axis for CI smoke runs (one benchmark, two
environments, Figure 4 only).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

from .benchsuite import BENCHMARKS, clear_program_memo, compile_benchmark
from .core import iclang
from .emulator import Machine
from .eval.runner import default_jobs

FULL_COMPILE_ENVS = ("plain", "ratchet", "wario", "wario-expander")
QUICK_COMPILE_ENVS = ("plain", "wario")
FULL_EVAL_EXPERIMENTS: List[str] = []          # empty = everything
QUICK_EVAL_EXPERIMENTS = ["fig4"]


def _revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def bench_compile(quick: bool = False) -> Dict[str, Dict[str, float]]:
    """Seconds per (environment, benchmark) compile, all caches off."""
    envs = QUICK_COMPILE_ENVS if quick else FULL_COMPILE_ENVS
    benches = ["crc"] if quick else list(BENCHMARKS)
    out: Dict[str, Dict[str, float]] = {}
    for env in envs:
        out[env] = {}
        for name in benches:
            bench = BENCHMARKS[name]
            start = time.perf_counter()
            iclang(bench.source, env, name=name, cache=False)
            out[env][name] = round(time.perf_counter() - start, 4)
    return out


#: timed runs per emulation measurement (min and median are reported)
EMULATION_REPEATS = 5
QUICK_EMULATION_REPEATS = 3


def _timed_runs(program, war_check: bool, limit: int, repeats: int):
    """``(stats of the last run, seconds of each run)``."""
    seconds = []
    for _ in range(repeats):
        machine = Machine(program, war_check=war_check)
        start = time.perf_counter()
        stats = machine.run(max_instructions=limit)
        seconds.append(time.perf_counter() - start)
    return stats, seconds


def bench_emulation(quick: bool = False) -> Dict[str, Dict[str, object]]:
    """Emulated instructions per second per benchmark (wario build),
    with WAR checking off and on."""
    benches = ["crc"] if quick else list(BENCHMARKS)
    repeats = QUICK_EMULATION_REPEATS if quick else EMULATION_REPEATS
    out: Dict[str, Dict[str, object]] = {}
    for name in benches:
        bench = BENCHMARKS[name]
        program = compile_benchmark(bench, "wario")
        # warm-up run decodes the program and faults in every code path
        Machine(program, war_check=True).run(
            max_instructions=bench.max_instructions
        )
        row: Dict[str, object] = {"repeats": repeats}
        for mode, war_check in (("war_off", False), ("war_on", True)):
            stats, seconds = _timed_runs(
                program, war_check, bench.max_instructions, repeats)
            row[mode] = {
                "seconds_min": round(min(seconds), 4),
                "seconds_median": round(statistics.median(seconds), 4),
                "instrs_per_sec": round(stats.instructions / min(seconds)),
            }
        row["warcheck_overhead"] = round(
            row["war_on"]["seconds_median"] / row["war_off"]["seconds_median"]
            - 1.0, 3)
        row.update({
            "instructions": stats.instructions,
            # the headline figure (WAR checking off, best run)
            "instrs_per_sec": row["war_off"]["instrs_per_sec"],
            # largest observed inter-checkpoint gap: the dynamic side of
            # the static progress certificate, tracked per revision so
            # bound tightness drifts show up in BENCH_*.json diffs
            "max_region_cycles": stats.max_region_cycles,
            # executed checkpoint count: the runtime quantity the
            # certificate-guided elision pass optimises
            "checkpoints_executed": stats.checkpoints,
        })
        out[name] = row
    return out


#: baseline → elision-optimised environment pairs the elision table
#: compares (the opt env differs from its baseline by ``call_summaries``
#: + ``checkpoint_elim``; the static ``elided`` count isolates the
#: second factor)
ELISION_PAIRS = (("wario", "wario-opt"), ("ratchet", "ratchet-opt"))


def bench_elision(quick: bool = False) -> Dict[str, Dict[str, object]]:
    """Executed-checkpoint and total-cycle deltas of the
    certificate-guided elision environments against their baselines."""
    benches = ["crc"] if quick else list(BENCHMARKS)
    out: Dict[str, Dict[str, object]] = {}
    for base_env, opt_env in ELISION_PAIRS:
        rows: Dict[str, object] = {}
        for name in benches:
            bench = BENCHMARKS[name]
            cells = {}
            elided = 0
            for env in (base_env, opt_env):
                program = compile_benchmark(bench, env)
                stats = Machine(program, war_check=False).run(
                    max_instructions=bench.max_instructions
                )
                cells[env] = stats
                if env == opt_env:
                    elided = getattr(program, "elisions", 0)
            base, opt = cells[base_env], cells[opt_env]
            rows[name] = {
                "checkpoints_executed": {
                    base_env: base.checkpoints, opt_env: opt.checkpoints,
                    "delta": opt.checkpoints - base.checkpoints,
                },
                "cycles": {
                    base_env: base.cycles, opt_env: opt.cycles,
                    "delta": opt.cycles - base.cycles,
                },
                # statically elided middle-end checkpoints (certificates
                # audited by ``repro lint --level full``)
                "elided": elided,
            }
        out[f"{base_env}->{opt_env}"] = rows
    return out


def bench_eval(quick: bool = False) -> Dict[str, object]:
    """Cold vs warm full-evaluation wall time, in subprocesses sharing a
    fresh cache directory (the cross-process reuse the cache exists for)."""
    experiments = QUICK_EVAL_EXPERIMENTS if quick else FULL_EVAL_EXPERIMENTS
    argv = [sys.executable, "-m", "repro.eval", *experiments, "--jobs", "1"]
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        env = dict(os.environ)
        env["REPRO_CACHE"] = "1"
        env["REPRO_CACHE_DIR"] = cache_dir
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        timings = []
        for _ in ("cold", "warm"):
            start = time.perf_counter()
            proc = subprocess.run(argv, env=env, capture_output=True, text=True)
            timings.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise RuntimeError(
                    f"evaluation subprocess failed:\n{proc.stderr[-2000:]}"
                )
    cold, warm = timings
    return {
        "experiments": experiments or ["all"],
        "cold_seconds": round(cold, 2),
        "warm_seconds": round(warm, 2),
        "speedup": round(cold / warm, 2),
    }


def run_bench(quick: bool = False, output: Optional[str] = None) -> str:
    """Run every measurement and write the JSON report.  Returns the
    output path."""
    clear_program_memo()
    report = {
        "revision": _revision(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "quick": quick,
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "default_jobs": default_jobs(),
        "compile": bench_compile(quick=quick),
        "emulation": bench_emulation(quick=quick),
        "elision": bench_elision(quick=quick),
        "eval": bench_eval(quick=quick),
    }
    path = output or f"BENCH_{report['revision']}.json"
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def render_report(path: str) -> str:
    with open(path) as handle:
        report = json.load(handle)
    lines = [f"revision {report['revision']} ({report['timestamp']}Z)"]
    for env, per_bench in report["compile"].items():
        total = sum(per_bench.values())
        lines.append(f"compile {env:<16} {total:7.2f}s total")
    for name, row in report["emulation"].items():
        region = row.get("max_region_cycles")
        suffix = f", max region {region:,} cycles" if region else ""
        if "war_on" in row:
            suffix = (f", {row['war_on']['instrs_per_sec']:,} with WAR "
                      f"checking ({row['warcheck_overhead']:+.0%})") + suffix
        lines.append(
            f"emulate {name:<16} {row['instrs_per_sec']:>12,} instrs/s"
            f"{suffix}"
        )
    for pair, rows in report.get("elision", {}).items():
        base_env, opt_env = pair.split("->")
        for name, row in rows.items():
            ckpt = row["checkpoints_executed"]
            cyc = row["cycles"]
            pct = cyc["delta"] / cyc[base_env] * 100 if cyc[base_env] else 0.0
            lines.append(
                f"elide   {name:<10} {pair:<22} "
                f"ckpt {ckpt[base_env]:>6,} -> {ckpt[opt_env]:>6,} "
                f"({ckpt['delta']:+d}), cycles {pct:+.2f}%, "
                f"{row['elided']} elided statically"
            )
    ev = report["eval"]
    lines.append(
        f"eval ({'+'.join(ev['experiments'])}): cold {ev['cold_seconds']}s, "
        f"warm {ev['warm_seconds']}s ({ev['speedup']}x)"
    )
    return "\n".join(lines)


__all__ = [
    "bench_compile", "bench_elision", "bench_emulation", "bench_eval",
    "render_report", "run_bench",
]
