"""The benchmark's own tests: inputs are seeded, names are valid, and the
failure accounting really counts failures.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
from dataclasses import replace

import common
import compile_cold
import inject_quick
import layers
import run
import serve_mixed
from common import ROOT, Tally

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_same_seed_same_ops():
    ops = compile_cold.draw_ops(7)
    assert ops == compile_cold.draw_ops(7)
    assert ops != compile_cold.draw_ops(8)
    assert len(ops) == 72
    assert sum(op.kind == "compile" for op in ops) == 54


def test_same_seed_same_requests():
    first = [next(s) for s in [serve_mixed.request_stream(3)] for _ in range(120)]
    stream = serve_mixed.request_stream(3)
    assert first == [next(stream) for _ in range(120)]
    fresh = [r for r in first if "source" in r[1]]
    assert len(fresh) == 12                           # 10 % of two blocks
    assert len({json.dumps(r, sort_keys=True) for r in fresh}) == 12


def test_metric_and_workload_names():
    spec = _spec()
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    assert "setup_s" in names
    # every layer the benchmark wraps reports its self time
    for _, _, span, _ in layers.LAYERS:
        if span not in ("core.middle_end", "backend.regalloc", "faultinject.shrink"):
            assert f"{span}.self_s" in names, span


def test_wrong_reference_is_an_error_not_a_crash():
    from repro.benchsuite import get_benchmark

    crc = get_benchmark("crc")
    wrong = replace(crc, reference=lambda: {"crc_result": -1, "chunks_done": -1})
    op = compile_cold.Op("compile", "crc", "wario")
    result = compile_cold.execute(op, wrong)
    assert not result.ok and result.reason.startswith("VerificationError")
    assert compile_cold.execute(op, crc).ok
    broken = compile_cold.execute(compile_cold.Op("compile", "crc", "no-such-env"), crc)
    assert not broken.ok and broken.reason.startswith("ValueError")
    tally = Tally()
    for r in (result, broken):
        tally.record(r.ok, r.reason)
    assert tally.error_rate == 1.0


def test_dropped_checkpoint_shows_in_error_rate():
    from repro.core.pipeline import ENVIRONMENTS

    mutant = replace(ENVIRONMENTS["wario"], name="wario-mutant", drop_checkpoint=0)
    workload = inject_quick.Workload(0, benches=("crc",), envs=(mutant,))
    workload.setup()
    report, _ = workload.campaign()
    tally = Tally()
    for ok, reason in inject_quick.judge(report):
        tally.record(ok, reason)
    assert tally.error_rate > 0


def test_tracing_restores_the_program():
    import repro.core.pipeline as pipeline
    from repro.benchsuite import get_benchmark
    from repro.emulator.machine import Machine

    original, run_method = pipeline.compile_sources, Machine.run
    tracer = layers.Tracer()
    installed = layers.Installed(tracer).install()
    try:
        assert pipeline.compile_sources is not original
        compile_cold.execute(compile_cold.Op("compile", "crc", "wario"),
                             get_benchmark("crc"))
    finally:
        installed.remove()
    assert pipeline.compile_sources is original and Machine.run is run_method
    times = tracer.self_times()
    assert times["frontend"] > 0 and times["emulator.run"] > 0
    assert tracer.counters["frontend.ir_instrs"] > 0


def test_self_time_subtracts_children():
    tracer = layers.Tracer()
    tracer.spans = [("outer", 0.0, 10.0, -1, 0, 0), ("inner", 2.0, 5.0, 0, 0, 0),
                    ("inner", 4.0, 6.0, 0, 0, 0)]
    times = tracer.self_times()
    assert times["outer"] == 6.0 and times["inner"] == 5.0


def test_speed_factor_is_reference_over_mean_probe():
    ref = common.PROBE_REFERENCE_S
    speed = common.Speed()
    speed.readings = [0.5 * ref, 1.5 * ref, ref]
    assert abs(speed.factor() - 1.0) < 1e-12
    # the highest and lowest tenth are dropped
    speed.readings = [ref / 2] * 4 + [ref * 2] * 4 + [ref / 100, ref * 100]
    assert abs(speed.factor() - 1 / 1.25) < 1e-12
    speed.take()
    assert len(speed.readings) == 11 and speed.readings[-1] > 0


def test_serve_requests_are_timed_by_their_class():
    def sample(index, params, scaled_ms, ok=True):
        return serve_mixed.Sample(index, "compile", params, 0.0, ok, scaled_ms=scaled_ms)

    repeat = {"benchmark": "crc", "env": "wario"}
    fresh = [{"source": f"v{i}", "name": "crc-variant", "env": "wario"} for i in range(3)]
    samples = [sample(0, repeat, 1.0), sample(1, repeat, 9.0), sample(2, repeat, 2.0),
               sample(3, fresh[0], 10.0), sample(4, fresh[1], 30.0),
               sample(5, fresh[2], 20.0), sample(6, repeat, 99.0, ok=False)]
    assert serve_mixed.class_latencies(samples) == [2.0, 2.0, 2.0, 20.0, 20.0, 20.0]
