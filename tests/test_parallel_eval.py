"""The parallel evaluation engine: deterministic merging, cell plumbing,
and the interpreter against the golden reference recordings."""

import pytest

from repro.benchsuite import BENCHMARKS, compile_benchmark
from repro.emulator import FixedPeriodPower, trace_a, trace_b
from repro.eval import Cell, ExperimentRunner, cells_for, power_from_key
from repro.eval.figures import render_figure4, render_table1
from repro.eval.runner import default_jobs

from helpers import golden_json, golden_run, replay_run

PARITY_CELLS = [
    Cell(bench, env)
    for bench in ("crc", "sha")
    for env in ("plain", "ratchet", "wario")
] + [Cell("crc", "wario", 0, "fixed-50000"), Cell("crc", "wario", 0, "trace-a")]


# ---------------------------------------------------------------------------
# cell plumbing
# ---------------------------------------------------------------------------


def test_power_from_key_round_trips():
    assert power_from_key("continuous") is None
    assert power_from_key(None) is None
    assert power_from_key("fixed-50000").cycles == FixedPeriodPower(50_000).cycles
    assert power_from_key("trace-a").sample(5) == trace_a().sample(5)
    assert power_from_key("trace-b").sample(5) == trace_b().sample(5)
    with pytest.raises(ValueError):
        power_from_key("solar")


def test_default_jobs_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert default_jobs() == 3
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert default_jobs() == 1
    monkeypatch.delenv("REPRO_JOBS")
    assert default_jobs() >= 1


def test_cells_for_deduplicates():
    cells = cells_for()
    assert len(cells) == len(set(cells))
    assert cells_for("fig4")[0] == Cell("coremark", "plain")


def test_war_check_distinguishes_runner_results():
    """Satellite: war_check is part of the result identity — two runners
    with different settings must not share results (regression: the old
    single-process memo keyed only on the cell)."""
    relaxed = ExperimentRunner(war_check=False, cache=False)
    checking = ExperimentRunner(war_check=True, cache=False)
    a = relaxed.run("crc", "wario")
    b = checking.run("crc", "wario")
    # same deterministic execution, but independently produced results
    assert a.stats.cycles == b.stats.cycles
    assert a is not b


def test_runner_compiles_each_cell_once():
    """Satellite: the result's program is the same object the emulator
    ran (no second compile behind the runner's back)."""
    runner = ExperimentRunner(cache=False)
    result = runner.run("crc", "wario")
    memoed = compile_benchmark(BENCHMARKS["crc"], "wario")
    assert result.program is memoed


# ---------------------------------------------------------------------------
# parallel == serial
# ---------------------------------------------------------------------------


def test_parallel_prefetch_matches_serial():
    serial = ExperimentRunner(jobs=1, cache=False)
    serial.prefetch(PARITY_CELLS)
    parallel = ExperimentRunner(jobs=4, cache=False)
    parallel.prefetch(PARITY_CELLS)
    for cell in PARITY_CELLS:
        s = serial.run(cell.bench, cell.env, cell.unroll or None,
                       power_key=cell.power_key)
        p = parallel.run(cell.bench, cell.env, cell.unroll or None,
                         power_key=cell.power_key)
        assert s.stats.instructions == p.stats.instructions, cell
        assert s.stats.cycles == p.stats.cycles, cell
        assert s.stats.checkpoints == p.stats.checkpoints, cell
        assert dict(s.stats.checkpoint_causes) == dict(p.stats.checkpoint_causes), cell
        assert s.stats.power_failures == p.stats.power_failures, cell
        assert s.program.text_size == p.program.text_size, cell


def test_parallel_figures_byte_identical():
    """The acceptance bar: rendered figures from a 4-worker run are
    byte-identical to a serial run."""
    cells = cells_for("fig4", "table1")
    serial = ExperimentRunner(jobs=1, cache=False)
    serial.prefetch(cells)
    parallel = ExperimentRunner(jobs=4, cache=False)
    parallel.prefetch(cells)
    assert render_figure4(serial) == render_figure4(parallel)
    assert render_table1(serial) == render_table1(parallel)


def test_prefetch_skips_already_done_cells():
    runner = ExperimentRunner(jobs=1, cache=False)
    runner.prefetch([Cell("crc", "plain")])
    first = runner.run("crc", "plain")
    runner.prefetch([Cell("crc", "plain")])
    assert runner.run("crc", "plain") is first


def test_run_cache_reuses_stats_across_runners(tmp_path):
    """Emulation results persist: a second runner on the same directory
    serves stats from disk without re-emulating."""
    from repro.benchsuite import clear_program_memo
    from repro.cache import CompileCache

    clear_program_memo()              # make the cold compile really cold
    cold = ExperimentRunner(cache=CompileCache(str(tmp_path)))
    first = cold.run("crc", "wario")
    clear_program_memo()              # force the warm path through the disk
    warm_store = CompileCache(str(tmp_path))
    warm = ExperimentRunner(cache=warm_store)
    second = warm.run("crc", "wario")
    assert second.stats.cycles == first.stats.cycles
    assert second.stats is not first.stats        # loaded, not shared
    assert warm_store.hits >= 2                    # program + run entries


# ---------------------------------------------------------------------------
# interpreter == reference recordings (tests/golden/emulator_runs.json, made
# with the original per-instruction interpreter before it was retired)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bench_name", sorted(BENCHMARKS))
def test_fast_interpreter_matches_reference(bench_name):
    """With WAR checking off, every environment x supply run of the
    benchmark reproduces its reference statistics, registers and NVM."""
    for name in sorted(golden_json("emulator_runs.json")):
        if name.startswith(bench_name + "/"):
            assert replay_run(name, war_check=False) == golden_run(
                name, war_check=False), name


def test_fast_interpreter_matches_reference_under_power_failures():
    for env in ("wario", "ratchet", "wario-opt"):
        for supply in ("fixed-30000", "schedule-15000-3540"):
            name = f"sha/{env}/{supply}"
            record = replay_run(name, war_check=False)
            assert record == golden_run(name, war_check=False), name
            assert record["stats"]["power_failures"] > 0
            assert record["stats"]["halted"]


def test_fast_interpreter_matches_reference_with_war_checking():
    """WAR checking observes the run without perturbing it."""
    for name in ("crc/wario/continuous", "crc/plain/interrupts-250"):
        checked = replay_run(name, war_check=True)
        assert checked == golden_run(name)
        checked.pop("violations")
        assert checked == replay_run(name, war_check=False)
