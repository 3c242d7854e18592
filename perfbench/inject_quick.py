"""``inject-quick``: the quick fault-injection campaign, cache off.

The campaign is ``quick_config(seed=<seed>, jobs=1)`` with
``cache=False``: {crc, sha} x {wario, ratchet, wario-opt}, ~126 failure
schedules replayed with WAR checking on.  It is issued as one
``run_campaign`` call per (benchmark, environment) pair, which plans and
replays exactly the schedules of the single call (every pair's plan is
seeded from the campaign seed, benchmark and environment alone), and the
pair reports are merged back into the single call's report.  Timing the
pairs apart lets every pair be timed over the rounds (the median of its
speed-scaled CPU times), as compile-cold times each op over its passes.

Set-up compiles the six programs beforehand (the campaign then finds
them in the in-process memo), so a campaign does no compiling.  An op is
one certified schedule; a pair campaign's CPU time is a latency sample.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from common import (
    Outcome, Speed, Tally, geomean, latency_summary, median_setup, own_peak_rss_mb,
    steal_seconds,
)


def judge(report) -> List[Tuple[bool, str]]:
    """One ``(ok, reason)`` per schedule: the continuous-power oracle
    must be clean and every verdict ``pass``."""
    verdicts = []
    for pair in report.pairs:
        label = f"{pair.bench}/{pair.env}"
        if not pair.oracle_clean:
            verdicts.extend([(False, f"{label}: oracle not clean")]
                            * max(1, len(pair.judged)))
            continue
        for judged in pair.judged:
            verdicts.append((judged.verdict == "pass",
                             f"{label}: {judged.verdict} {judged.reason}"))
    return verdicts


class Workload:
    name = "inject-quick"

    def __init__(self, seed: int, **overrides):
        from repro.faultinject import quick_config

        self.config = quick_config(seed=seed, jobs=1, **overrides)
        self.pair_configs = [replace(self.config, benches=(bench,), envs=(env,))
                             for bench in self.config.benches
                             for env in self.config.envs]
        self.programs: Dict[Tuple[str, str], object] = {}
        self.plain: Dict[str, Tuple[int, int]] = {}

    def setup(self) -> None:
        """Compile the campaign's programs cold, plus the ``plain``
        builds that normalise ``gen.*``."""
        from repro.benchsuite import clear_program_memo, compile_benchmark, get_benchmark
        from repro.core import iclang
        from repro.emulator import Machine
        from repro.faultinject.campaign import env_name

        clear_program_memo()
        for bench_name in self.config.benches:
            bench = get_benchmark(bench_name)
            for env in self.config.envs:
                self.programs[(bench_name, env_name(env))] = compile_benchmark(
                    bench, env, None, cache=False)
            plain = iclang(bench.source, "plain", name=bench_name, cache=False)
            stats = Machine(plain, war_check=False).run(
                max_instructions=bench.max_instructions)
            self.plain[bench_name] = (stats.cycles, plain.text_size)

    def campaign(self, speed: Optional[Speed] = None):
        """One round: every pair's campaign; returns the merged report and
        each pair's CPU seconds (``jobs=1`` campaigns run in this process).
        ``speed`` gets two probe readings before each pair and after the last."""
        from repro.faultinject import run_campaign
        from repro.faultinject.report import CampaignReport

        pairs, times = [], []
        for config in self.pair_configs:
            if speed is not None:
                speed.take(2)
            started = time.process_time()
            report = run_campaign(config, cache=False)
            times.append(time.process_time() - started)
            pairs += report.pairs
        if speed is not None:
            speed.take(2)
        return CampaignReport(config=self.config, pairs=pairs), times

    def gen_metrics(self, report) -> Dict[str, float]:
        cycles, text, checkpoints = [], [], 0
        for pair in report.pairs:
            plain_cycles, plain_text = self.plain[pair.bench]
            cycles.append(pair.oracle.cycles / plain_cycles)
            text.append(self.programs[(pair.bench, pair.env)].text_size / plain_text)
            checkpoints += pair.oracle.checkpoints
        return {"gen.norm_cycles": geomean(cycles), "gen.norm_text": geomean(text),
                "gen.checkpoints": float(checkpoints)}

    def run(self, seconds: float, tracer=None) -> Outcome:
        setup_s, setup_all = median_setup(self.setup)
        if tracer is not None:
            return self._traced(seconds, tracer)
        tally = Tally()
        rounds, factors = [], []
        started, steal = time.perf_counter(), steal_seconds()
        last = 0.0
        # another round only while it is expected to end in time
        while len(rounds) < 2 or time.perf_counter() - started + last <= seconds:
            begun, speed = time.perf_counter(), Speed()
            rounds.append(self.campaign(speed))
            factors.append(speed.factor())
            last = time.perf_counter() - begun
        wall, steal = time.perf_counter() - started, steal_seconds() - steal
        reference = rounds[0][0].to_json()
        for report, _ in rounds:
            same = report.to_json() == reference
            for ok, reason in judge(report):
                tally.record(ok and same, reason if same else "campaign report differs")
        # each pair's CPU time scaled by its round's speed, median over rounds
        typical = [statistics.median(t * factor for t, factor in zip(times, factors))
                for times in zip(*(times for _, times in rounds))]
        lat = latency_summary([t * 1000.0 for t in typical])
        gen = self.gen_metrics(rounds[0][0])
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": rounds[0][0].cells / sum(typical),
            "latency_ms.p50": lat["p50"],
            "latency_ms.p99": lat["p99"],
            "peak_rss_mb": own_peak_rss_mb(),
        }
        metrics.update(gen)
        fingerprint = {"report": reference, "gen": gen}
        details = {"rounds": len(rounds), "round_cpu_s": [sum(t) for _, t in rounds],
                   "schedules_per_round": rounds[0][0].cells, "latency_samples": lat,
                   "setup_s_all": setup_all, "error_rate": tally.error_rate,
                   "measure_wall_s": wall, "measure_steal_s": steal,
                   "speed_factors": factors}
        return Outcome(tally, metrics, fingerprint, details)

    def _traced(self, seconds: float, tracer) -> Outcome:
        from repro.benchsuite import get_benchmark

        from layers import Installed, warcheck_overhead

        tally = Tally()
        started = time.perf_counter()
        # one campaign warms up; the untraced baseline is the one after it
        warm, _ = self.campaign()
        speed = Speed()
        report, pair_times = self.campaign(speed)
        untraced_s = sum(pair_times) * speed.factor()
        for ok, reason in judge(warm) + judge(report):
            tally.record(ok, reason)
        campaigns, last = [], 0.0
        installed = Installed(tracer).install()
        try:
            # another campaign only while it is expected to end in time
            while not campaigns or time.perf_counter() - started + last <= seconds:
                begun, tracer.op, speed = time.perf_counter(), len(campaigns), Speed()
                span = tracer.begin("op.campaign")
                report, pair_times = self.campaign(speed)
                tracer.end(span)
                campaigns.append(sum(pair_times) * speed.factor())
                last = time.perf_counter() - begun
                tracer.count("faultinject.schedules", report.cells)
                for ok, reason in judge(report):
                    tally.record(ok, reason)
        finally:
            installed.remove()
        metrics = {
            "emulator.warcheck_overhead": warcheck_overhead(
                (program, get_benchmark(bench).max_instructions)
                for (bench, _), program in self.programs.items()),
            "trace.overhead_s": sum(campaigns) / len(campaigns) - untraced_s,
        }
        details = {"traced_campaigns": len(campaigns), "untraced_campaign_s": untraced_s,
                   "traced_campaign_s": campaigns}
        return Outcome(tally, metrics, {}, details, units=len(campaigns))
