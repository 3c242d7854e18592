"""Outside-in layer tracing: spans around the toolchain's public functions.

The benchmark never edits the program.  For a traced run it replaces
module attributes (the names ``repro.core.pipeline``, ``repro.core.lint``
and friends call through) with thin wrappers that record a span per call
and a few work counters, and puts the originals back afterwards.
Untraced runs install nothing.

A span is ``(name, start, end, parent, op, track)``: ``parent`` is the
index of the enclosing span (``-1`` at top level), ``op`` the identifier
shared by every span of one benchmark operation and ``track`` the lane
it ran on (a client connection; ``0`` for in-process work).  Spans stay in memory and are
written out once, as Chrome trace-event JSON (readable by Perfetto).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


def ir_instruction_count(module) -> int:
    return sum(
        len(list(block)) for fn in module.defined_functions() for block in fn.blocks
    )


def ir_checkpoint_count(module) -> int:
    return sum(
        1
        for fn in module.defined_functions()
        for block in fn.blocks
        for instr in block
        if instr.opcode == "checkpoint"
    )


class Tracer:
    """In-memory spans plus named counters."""

    def __init__(self):
        self.spans: List[Tuple[str, float, float, int, int, int]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self.op = 0

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.op, 0))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        name, start, _, parent, op, track = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent, op, track)
        self._stack.pop()

    def add_span(self, name: str, start: float, end: float, op: int,
                 track: int) -> None:
        """A finished top-level span (the serve client records these)."""
        self.spans.append((name, start, end, -1, op, track))

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, minus the part child spans cover."""
        covered: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent].append((start, end))
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _, _) in enumerate(self.spans):
            busy, reach = 0.0, start
            for lo, hi in sorted(covered.get(index, ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    busy += hi - lo
                    reach = hi
            totals[name] += (end - start) - busy
        return dict(totals)

    def write_chrome(self, path: str) -> None:
        if not self.spans:
            return
        origin = min(span[1] for span in self.spans)
        events = [
            {
                "name": name, "ph": "X", "pid": 1, "tid": track,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"op": op, "parent": parent, "span": index},
            }
            for index, (name, start, end, parent, op, track) in enumerate(self.spans)
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


# ---------------------------------------------------------------------------
# Counters taken at the layer boundaries
# ---------------------------------------------------------------------------


def _count_frontend(tracer, result, args):
    tracer.count("frontend.ir_instrs", ir_instruction_count(result))


def _count_optimize(tracer, result, args):
    tracer.count("transforms.ir_instrs", ir_instruction_count(args[0]))


def _count_middle_end(tracer, result, args):
    tracer.count("core.ir_ckpts", ir_checkpoint_count(args[0]))


def _count_elim(tracer, result, args):
    tracer.count("core.elided", result.elided)


def _count_memdep(tracer, result, args):
    tracer.count("analysis.memdep.calls")
    tracer.count("analysis.memdep.wars", len(result))


def _count_regalloc(tracer, result, args):
    tracer.count("backend.spills", len(result[0]))


def _count_encode(tracer, result, args):
    tracer.count("backend.text_bytes", result.text_size)


def _count_machine(tracer, result, args):
    stats = args[0].stats
    tracer.count("emulator.instrs", stats.instructions)
    tracer.count("emulator.checkpoints", stats.checkpoints)
    tracer.count("emulator.power_failures", stats.power_failures)
    tracer.count("emulator.cycles", stats.cycles)
    tracer.count("emulator.reexecuted_cycles", stats.reexecuted_cycles)


def _count_replay(tracer, result, args):
    # cycles spent before the schedule's first planned failure: the
    # replay matches the oracle up to there
    schedule = args[2]
    tracer.count("emulator.prefix_cycles", min(schedule[0], result.cycles))
    tracer.count("emulator.replay_cycles", result.cycles)


def _count_shrink(tracer, result, args):
    tracer.count("faultinject.shrinks")


#: (defining module, attribute, span name, counter).  Every binding of
#: the same function object in an imported ``repro`` module is wrapped,
#: so ``from .x import f`` copies are covered too.  ``Class.method``
#: attributes wrap the method on its class.
LAYERS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.frontend", "compile_sources", "frontend", _count_frontend),
    ("repro.transforms", "optimize_module", "transforms.optimize", _count_optimize),
    ("repro.core.pipeline", "run_middle_end", "core.middle_end", _count_middle_end),
    ("repro.core.loop_write_clusterer", "cluster_loop_writes", "core.lwc", None),
    ("repro.core.expander", "expand", "core.expander", None),
    ("repro.core.write_clusterer", "cluster_writes", "core.write_clusterer", None),
    ("repro.core.checkpoint_inserter", "insert_checkpoints", "core.inserter", None),
    ("repro.core.hitting_set", "greedy_hitting_set", "core.hitting_set", None),
    ("repro.core.checkpoint_elim", "elide_redundant_checkpoints", "core.elim", _count_elim),
    ("repro.analysis.memdep", "find_wars", "analysis.memdep", _count_memdep),
    ("repro.analysis.pointsto", "compute_points_to", "analysis.pointsto", None),
    ("repro.analysis.summaries", "compute_summaries", "analysis.summaries", None),
    ("repro.backend", "lower_module", "backend.lower", None),
    ("repro.backend.regalloc", "allocate_registers", "backend.regalloc", _count_regalloc),
    ("repro.backend.spill_checkpoints", "find_spill_wars", "backend.spill_wars", None),
    ("repro.backend.encoder", "encode_module", "backend.encode", _count_encode),
    ("repro.ir.verifier", "verify_module", "ir.verify", None),
    ("repro.analysis.static_war", "verify_module_war", "analysis.static_war", None),
    ("repro.analysis.idempotence", "certify_module_idempotence", "analysis.idempotence", None),
    ("repro.analysis.progress", "certify_module_progress", "analysis.progress", None),
    ("repro.backend.mir_war", "verify_mmodule_war", "backend.mir_war", None),
    ("repro.emulator.machine", "Machine.run", "emulator.run", _count_machine),
    ("repro.faultinject.campaign", "_execute_oracle", "faultinject.oracle", None),
    ("repro.faultinject.plan", "plan_schedules", "faultinject.plan", None),
    ("repro.faultinject.campaign", "_execute_schedule", "faultinject.replay", _count_replay),
    ("repro.faultinject.campaign", "certify_outcome", "faultinject.certify", None),
    ("repro.faultinject.campaign", "shrink_schedule", "faultinject.shrink", _count_shrink),
)


def _wrap(tracer: Tracer, original: Callable, span: str,
          counter: Optional[Callable]) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = tracer.begin(span)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(index)
        if counter is not None:
            counter(tracer, result, args)
        return result

    return wrapper


class Installed:
    """The wrappers of one traced run; :meth:`remove` restores the program."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: List[Tuple[object, str, object]] = []

    def install(self) -> "Installed":
        for module_name, attr, span, counter in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, _wrap(self.tracer, original, span, counter))
                continue
            original = getattr(module, attr)
            wrapper = _wrap(self.tracer, original, span, counter)
            for name, loaded in list(sys.modules.items()):
                if not name.startswith("repro") or loaded is None:
                    continue
                for binding, value in list(vars(loaded).items()):
                    if value is original:
                        self._undo.append((loaded, binding, original))
                        setattr(loaded, binding, wrapper)
        return self

    def remove(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def layer_values(tracer: Tracer, units: int) -> Dict[str, float]:
    """Per-unit self times and counters, plus the derived ratios."""
    values = {f"{span}.self_s": seconds / units
              for span, seconds in tracer.self_times().items()}
    values.update({name: count / units for name, count in tracer.counters.items()})

    def ratio(numerator: str, denominator: str) -> float:
        base = values.get(denominator, 0.0)
        return values.get(numerator, 0.0) / base if base else 0.0

    values["emulator.instrs_per_s"] = ratio("emulator.instrs", "emulator.run.self_s")
    values["emulator.reexec_share"] = ratio("emulator.reexecuted_cycles", "emulator.cycles")
    values["emulator.prefix_share"] = ratio("emulator.prefix_cycles", "emulator.replay_cycles")
    values["trace.spans"] = len(tracer.spans) / units
    return values


def warcheck_overhead(runs) -> float:
    """Emulation time with WAR checking on over time with it off, minus 1,
    for ``(program, max_instructions)`` pairs (best of three each)."""
    from repro.emulator import Machine

    totals = {True: 0.0, False: 0.0}
    for program, limit in runs:
        for flag in (False, True):
            best = float("inf")
            for _ in range(3):
                machine = Machine(program, war_check=flag)
                started = time.perf_counter()
                machine.run(max_instructions=limit)
                best = min(best, time.perf_counter() - started)
            totals[flag] += best
    return totals[True] / totals[False] - 1.0
