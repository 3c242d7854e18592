"""The emulator against its golden records.

``tests/golden/emulator_runs.json`` pins every ``ExecutionStats`` field,
the registers, the NVM digest and the WAR violations of the six
benchmarks under ``plain``/``wario``/``ratchet``/``wario-opt`` and four
supplies; ``tests/golden/event_traces.json`` pins a few event traces.
``tests/golden/generate_emulator.py`` defines the cases and regenerates
both files.
"""

import pytest

from helpers import as_json, golden_generator, golden_json, golden_run, replay_run

gen = golden_generator("generate_emulator")
RUNS = golden_json("emulator_runs.json")
TRACES = golden_json("event_traces.json")
TRACE_CASES = list(gen.trace_cases())


def test_fixture_covers_every_case():
    assert sorted(RUNS) == sorted(name for name, *_ in gen.run_cases())
    assert len(RUNS) == 6 * 4 * 4


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden(name):
    assert replay_run(name) == golden_run(name)


@pytest.mark.parametrize("case", TRACE_CASES, ids=[c[0] for c in TRACE_CASES])
def test_event_trace_matches_golden(case):
    name, bench, env, power, interval = case
    assert as_json(gen.run_trace_case(bench, env, power, interval)) == TRACES[name]
