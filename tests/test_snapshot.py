"""Machine snapshots, paused runs and the inline WAR shadow.

A campaign replays each failure schedule from a snapshot of a
continuous-power run paused at the schedule's first failure point; that
is sound only if resuming is indistinguishable from replaying from
reset.  The properties here check exactly that, on several programs
(one under an interrupt load), down to the statistics, every memory
byte and the full list of WAR violations.
"""

import functools
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.benchsuite import compile_benchmark, get_benchmark
from repro.core.pipeline import ENVIRONMENTS
from repro.emulator import (
    EmulationError,
    EventTrace,
    FixedPeriodPower,
    Machine,
    SchedulePower,
    Violation,
)

from helpers import golden_generator

LIMIT = 2_000_000

SKIP_POP = replace(ENVIRONMENTS["ratchet"], name="ratchet+skip-pop-conversion",
                   skip_pop_conversion=True)

#: (benchmark, environment, interrupt interval)
PROGRAMS = [
    ("crc", "wario", None),
    ("sha", "ratchet", None),
    ("coremark", "plain", None),
    ("crc", SKIP_POP, 50),
    ("xcall", "wario-opt", 7),
]


def _program(index):
    bench, env, interval = PROGRAMS[index]
    return compile_benchmark(get_benchmark(bench), env, None, cache=False), interval


def _observe(machine: Machine, power) -> dict:
    """Run to the end; everything a replay can observe."""
    error = ""
    try:
        machine.run(power=power, max_instructions=LIMIT)
    except EmulationError as exc:
        error = f"{type(exc).__name__}: {exc}"
    record = golden_generator("generate_emulator").machine_record(machine, error)
    record["memory"] = bytes(machine.memory)
    record["violations"] = list(machine.war.violations)
    return record


@functools.lru_cache(maxsize=None)
def _oracle_cycles(index) -> int:
    program, interval = _program(index)
    return Machine(program, interrupt_interval=interval).run(
        max_instructions=LIMIT).cycles


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    index=st.integers(0, len(PROGRAMS) - 1),
    fraction=st.floats(0.0, 0.9),
    slack=st.integers(0, 3000),
    tail=st.lists(st.integers(1, 20_000), max_size=2),
)
def test_resume_from_snapshot_equals_replay_from_reset(index, fraction, slack, tail):
    program, interval = _program(index)
    pause = max(1, int(_oracle_cycles(index) * fraction))
    schedule = (pause + slack, *tail)

    reference = _observe(Machine(program, interrupt_interval=interval),
                         SchedulePower(schedule))

    leader = Machine(program, interrupt_interval=interval)
    assume(not leader.run(pause_at=pause, max_instructions=LIMIT).halted)
    snapshot = leader.snapshot()
    for _ in range(2):  # a snapshot restores any number of times
        resumed = Machine(program, interrupt_interval=interval)
        resumed.restore(snapshot)
        assert _observe(resumed, SchedulePower(schedule)) == reference

    # pausing is transparent to the paused machine itself
    oracle = _observe(Machine(program, interrupt_interval=interval), None)
    assert _observe(leader, None) == oracle


def test_paused_run_resumes_at_successive_points():
    program, interval = _program(0)
    leader = Machine(program, interrupt_interval=interval)
    for point in (500, 500, 4000, 12_000):
        stats = leader.run(pause_at=point, max_instructions=LIMIT)
        assert not stats.halted
        resumed = Machine(program)
        resumed.restore(leader.snapshot())
        fresh = Machine(program)
        assert (_observe(resumed, SchedulePower((point, 2000)))
                == _observe(fresh, SchedulePower((point, 2000))))


def test_snapshot_guards():
    program, _ = _program(0)
    with pytest.raises(ValueError, match="continuous"):
        Machine(program).run(power=FixedPeriodPower(5000), pause_at=100)
    with pytest.raises(ValueError, match="JIT"):
        Machine(program, jit_checkpoint_threshold=100).run(pause_at=100)
    with pytest.raises(ValueError, match="traced"):
        Machine(program, trace=EventTrace()).snapshot()
    unchecked = Machine(program, war_check=False)
    unchecked.run(pause_at=1000)
    with pytest.raises(ValueError, match="WAR"):
        Machine(program).restore(unchecked.snapshot())


# ---------------------------------------------------------------------------
# the inline word shadow vs. the byte-granular checker it replaced
# ---------------------------------------------------------------------------


class ByteGranularChecker:
    """The original WAR checker: one dict entry per byte, every access
    through :meth:`on_read` / :meth:`on_write` (``words = None`` keeps
    the machine off its inline path)."""

    READ = 1
    WRITE = 2
    words = None

    def __init__(self, site):
        self._first = {}
        self.violations = []
        self.region_index = 0
        self.site = site

    def on_read(self, address, size):
        for a in range(address, address + size):
            if a not in self._first:
                self._first[a] = self.READ

    def on_write(self, address, size, pc=-1, function=None, loc=None):
        for a in range(address, address + size):
            kind = self._first.get(a)
            if kind is None:
                self._first[a] = self.WRITE
            elif kind == self.READ:
                function, loc = self.site(pc)
                self.violations.append(
                    Violation(a, pc, function, self.region_index, loc))
                self._first[a] = self.WRITE

    def on_checkpoint(self):
        self._first.clear()
        self.region_index += 1

    def on_power_restore(self):
        self._first.clear()


@pytest.mark.parametrize("bench", ["crc", "sha"])
@pytest.mark.parametrize("power", [None, (20_000, 3_000)])
def test_inline_shadow_reports_what_the_byte_checker_reports(bench, power):
    program = compile_benchmark(get_benchmark(bench), SKIP_POP, None, cache=False)
    inline = Machine(program, interrupt_interval=50)
    byte = Machine(program, interrupt_interval=50)
    byte.war = ByteGranularChecker(inline.war.site)
    for machine in (inline, byte):
        machine.run(power=power and SchedulePower(power), max_instructions=LIMIT)
    assert inline.war.violations            # the seeded bug is observable
    assert inline.war.violations == byte.war.violations
    assert inline.stats == byte.stats
    assert inline.memory == byte.memory
