"""The intermittent-computing emulator (paper §5.1.1).

Executes an encoded :class:`~repro.backend.encoder.Program` on a model of
an ARM Cortex-M-class MCU with non-volatile main memory: globals and the
stack live in NVM (they survive power failures); the register file is
volatile and is saved only by the double-buffered checkpoint runtime.

The emulator optionally drives a :class:`~repro.emulator.power.PowerSupply`
(power failures clear the registers and charge the boot + restore path),
fires a periodic timer interrupt (hardware stacking through the WAR
checker), and verifies the absence of WAR violations on every access.
One interpreter loop carries all of it; ``tests/golden/`` pins its
observable behaviour.  Runs can pause at a cycle and be snapshotted and
resumed, which lets fault-injection campaigns share the failure-free
prefix of their replays.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..backend.encoder import HALT_ADDRESS, Program, STACK_TOP
from .costs import DEFAULT_COSTS, CostModel
from .events import EventTrace
from .power import PowerSupply
from .stats import ExecutionStats
from .warcheck import WARChecker

M32 = 0xFFFFFFFF

_U32 = struct.Struct("<I").unpack_from
_P32 = struct.Struct("<I").pack_into
_U16 = struct.Struct("<H").unpack_from
_P16 = struct.Struct("<H").pack_into


class EmulationError(Exception):
    pass


class EmulationLimit(EmulationError):
    """Raised when the instruction budget is exhausted."""


class NoForwardProgress(EmulationError):
    """Raised when the power supply cannot sustain boot + restore."""


def _signed(v: int) -> int:
    v &= M32
    return v - (1 << 32) if v >= 1 << 31 else v


_COND = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: _signed(a) < _signed(b),
    "le": lambda a, b: _signed(a) <= _signed(b),
    "gt": lambda a, b: _signed(a) > _signed(b),
    "ge": lambda a, b: _signed(a) >= _signed(b),
    "lo": lambda a, b: a < b,
    "ls": lambda a, b: a <= b,
    "hi": lambda a, b: a > b,
    "hs": lambda a, b: a >= b,
}

_ALU = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "and": lambda a, b: a & b,
    "orr": lambda a, b: a | b,
    "eor": lambda a, b: a ^ b,
}


# ---------------------------------------------------------------------------
# Predecoded instruction stream
#
# ``Machine.run`` dominates every evaluation: each emulated instruction
# used to pay for attribute walks (``instr.opcode``, ``instr.ops``),
# string-compare dispatch, a ``CostModel.cost_of`` call, and
# ``isinstance`` checks on every operand.  All of that is resolvable
# once per program: ``_decode_program`` turns each ``MInstr`` into a
# flat tuple ``(kind, cost, ...)`` with
#
# * an integer opcode *kind* specialised on operand shapes (register vs
#   immediate, base register vs stack slot),
# * the cycle cost resolved through the cost model (branch kinds also
#   carry the taken cost including the pipeline refill),
# * operands reduced to physical register names, pre-masked immediates,
#   pre-folded stack offsets, resolved condition-code predicates, and
#   branch targets biased by -1 (the main loop always increments pc).
#
# The decoded stream is cached on the Program keyed by the cost model,
# so repeated Machine constructions over one program decode once.
# ---------------------------------------------------------------------------

K_LDR4, K_LDR1, K_LDR2 = 0, 1, 2
K_STR4_R, K_STR1_R, K_STR2_R = 3, 4, 5
K_STR4_I, K_STR1_I, K_STR2_I = 6, 7, 8
K_ADD_RR, K_ADD_RI, K_SUB_RR, K_SUB_RI = 9, 10, 11, 12
K_ALU_RR, K_ALU_RI, K_ALU_IR, K_ALU_II = 13, 14, 15, 16
K_CMP_RR, K_CMP_RI, K_CMP_IR, K_CMP_II = 17, 18, 19, 20
K_BCC, K_B = 21, 22
K_MOV_I, K_MOV_R = 23, 24
K_BL, K_BX_LR = 25, 26
K_PUSH, K_POP = 27, 28
K_SHIFT, K_DIV = 29, 30
K_CMOV_R, K_CMOV_I = 31, 32
K_LEA, K_ADDSP = 33, 34
K_EXT = 35
K_CKPT = 36
K_CPSID, K_CPSIE, K_NOP = 37, 38, 39
K_BAD = 40

_LOAD_KINDS = {"ldr": K_LDR4, "ldrb": K_LDR1, "ldrh": K_LDR2}
_STORE_KINDS_R = {"str": K_STR4_R, "strb": K_STR1_R, "strh": K_STR2_R}
_STORE_KINDS_I = {"str": K_STR4_I, "strb": K_STR1_I, "strh": K_STR2_I}
_SHIFT_IDS = {"lsl": 0, "lsr": 1, "asr": 2}
_EXT_IDS = {"sxtb": 0, "uxtb": 1, "sxth": 2, "uxth": 3}


def _operand(op):
    """(is_immediate, register-name-or-masked-immediate) for a value op."""
    if isinstance(op, int):
        return True, op & M32
    return False, op.phys


def _base_and_offset(base, offset):
    """Fold an addressing operand into (register name, byte offset)."""
    if isinstance(base, str):  # 'sp'
        return base, offset
    if hasattr(base, "offset"):  # StackSlot
        return "sp", base.offset + offset
    return base.phys, offset  # VReg


def _decode_program(program: Program, costs: CostModel) -> List[tuple]:
    decoded = []
    refill = costs.pipeline_refill
    for instr in program.instrs:
        op = instr.opcode
        try:
            cost = costs.cost_of(instr)
        except KeyError:
            # Unknown opcode: fail only if the instruction is actually
            # executed.
            decoded.append((K_BAD, 0, instr))
            continue
        ops = instr.ops
        if op in ("ldr", "ldrb", "ldrh"):
            base, off = _base_and_offset(ops[0], ops[1])
            entry = (_LOAD_KINDS[op], cost, instr.dst.phys, base, off)
        elif op in ("str", "strb", "strh"):
            imm, src = _operand(ops[0])
            base, off = _base_and_offset(ops[1], ops[2])
            kinds = _STORE_KINDS_I if imm else _STORE_KINDS_R
            entry = (kinds[op], cost, src, base, off)
        elif op in ("add", "sub"):
            a_imm, a = _operand(ops[0])
            b_imm, b = _operand(ops[1])
            if not a_imm:
                if b_imm:
                    kind = K_ADD_RI if op == "add" else K_SUB_RI
                else:
                    kind = K_ADD_RR if op == "add" else K_SUB_RR
                entry = (kind, cost, instr.dst.phys, a, b)
            else:  # immediate left operand: fall back to the generic form
                kind = K_ALU_II if b_imm else K_ALU_IR
                entry = (kind, cost, instr.dst.phys, a, b, _ALU[op])
        elif op in ("mul", "and", "orr", "eor"):
            a_imm, a = _operand(ops[0])
            b_imm, b = _operand(ops[1])
            kind = {
                (False, False): K_ALU_RR, (False, True): K_ALU_RI,
                (True, False): K_ALU_IR, (True, True): K_ALU_II,
            }[(a_imm, b_imm)]
            entry = (kind, cost, instr.dst.phys, a, b, _ALU[op])
        elif op == "cmp":
            a_imm, a = _operand(ops[0])
            b_imm, b = _operand(ops[1])
            kind = {
                (False, False): K_CMP_RR, (False, True): K_CMP_RI,
                (True, False): K_CMP_IR, (True, True): K_CMP_II,
            }[(a_imm, b_imm)]
            entry = (kind, cost, a, b)
        elif op == "bcc":
            entry = (K_BCC, cost, _COND[instr.cond], ops[0] - 1, cost + refill)
        elif op == "b":
            entry = (K_B, cost, ops[0] - 1, cost + refill)
        elif op == "mov":
            imm, src = _operand(ops[0])
            entry = (K_MOV_I if imm else K_MOV_R, cost, instr.dst.phys, src)
        elif op == "adr":
            # the encoder resolved the address to an absolute immediate
            entry = (K_MOV_I, cost, instr.dst.phys, ops[0] & M32)
        elif op == "bl":
            callee = program.function_of_index[ops[0]]
            entry = (K_BL, cost, ops[0] - 1, callee, cost + refill)
        elif op == "bx_lr":
            entry = (K_BX_LR, cost, cost + refill)
        elif op == "push":
            entry = (K_PUSH, cost, tuple(instr.regs))
        elif op == "pop":
            entry = (K_POP, cost, tuple(instr.regs))
        elif op in ("lsl", "lsr", "asr"):
            a_imm, a = _operand(ops[0])
            b_imm, b = _operand(ops[1])
            entry = (K_SHIFT, cost, _SHIFT_IDS[op], a_imm, a, b_imm, b,
                     instr.dst.phys)
        elif op in ("udiv", "sdiv"):
            a_imm, a = _operand(ops[0])
            b_imm, b = _operand(ops[1])
            entry = (K_DIV, cost, op == "sdiv", a_imm, a, b_imm, b,
                     instr.dst.phys)
        elif op == "cmov":
            imm, src = _operand(ops[0])
            entry = (K_CMOV_I if imm else K_CMOV_R, cost, _COND[instr.cond],
                     instr.dst.phys, src)
        elif op == "lea":
            entry = (K_LEA, cost, instr.dst.phys, ops[0].offset)
        elif op == "addsp":
            entry = (K_ADDSP, cost, ops[0])
        elif op == "subsp":
            entry = (K_ADDSP, cost, -ops[0])
        elif op in ("sxtb", "uxtb", "sxth", "uxth"):
            imm, src = _operand(ops[0])
            entry = (K_EXT, cost, _EXT_IDS[op], instr.dst.phys, imm, src)
        elif op == "checkpoint":
            entry = (K_CKPT, cost, instr.cause)
        elif op == "cpsid":
            entry = (K_CPSID, cost)
        elif op == "cpsie":
            entry = (K_CPSIE, cost)
        elif op == "nop":
            entry = (K_NOP, cost)
        else:
            entry = (K_BAD, cost, instr)
        decoded.append(entry)
    return decoded


def _decoded_for(program: Program, costs: CostModel) -> List[tuple]:
    cached = getattr(program, "_decoded_cache", None)
    if cached is not None and cached[0] is costs:
        return cached[1]
    decoded = _decode_program(program, costs)
    program._decoded_cache = (costs, decoded)
    return decoded


def _store_site(program: Program):
    """``pc -> (function, source location)`` for WAR violation records."""
    return lambda pc: (program.function_of_index[pc], program.instrs[pc].loc)


#: a word's shadow mask after an aligned word load: every byte not yet
#: accessed in the region becomes read-first (see :class:`WARChecker`)
_READ_WORD = tuple(m | 15 & ~(m | m >> 4) for m in range(256))
#: a word's shadow mask after an aligned word store that found no byte
#: read-first: every byte is written-first
_WRITTEN_WORD = 0xF0


@dataclass(frozen=True)
class MachineSnapshot:
    """The complete state of a :class:`Machine` between two instructions
    (see :meth:`Machine.snapshot`); restorable any number of times."""

    memory: bytes
    regs: Dict[str, int]
    pc: int
    last_cmp: Tuple[int, int]
    interrupts_enabled: bool
    pending_interrupt: bool
    next_interrupt: Optional[int]
    region_cycles: int
    period_used: int
    jit_fired: bool
    checkpoint: tuple
    failures_since_checkpoint: int
    stats: ExecutionStats
    #: ``(shadow words, violations, region index)``, None without WAR checking
    war: Optional[tuple]


class Machine:
    """One emulated device executing one program.

    :meth:`run` interprets the predecoded instruction stream; WAR
    checking, event tracing, interrupts and JIT checkpoints all hook
    into that one loop.  A run paused with ``run(pause_at=...)`` can be
    captured by :meth:`snapshot` and resumed, any number of times, in
    fresh machines via :meth:`restore`.
    """

    def __init__(
        self,
        program: Program,
        cost_model: Optional[CostModel] = None,
        war_check: bool = True,
        interrupt_interval: Optional[int] = None,
        jit_checkpoint_threshold: Optional[int] = None,
        trace: Optional[EventTrace] = None,
    ):
        self.program = program
        self.costs = cost_model or DEFAULT_COSTS
        #: optional :class:`EventTrace` recording consistency-critical
        #: instants (checkpoint commits, restores, first region stores,
        #: epilogue mask/unmask) for the fault-injection planner.  The
        #: ``war-write`` hook lives in :meth:`write_mem`, which stores
        #: only reach when WAR checking is on — so tracing requires
        #: ``war_check=True``.
        if trace is not None and not war_check:
            raise ValueError("event tracing requires war_check=True")
        self._trace = trace
        self._decoded = _decoded_for(program, self.costs)
        self.war = WARChecker(site=_store_site(program)) if war_check else None
        self.interrupt_interval = interrupt_interval
        #: Just-In-Time checkpointing (paper §6): a Hibernus-style
        #: voltage-comparator model.  When the remaining on-time of a
        #: discharge falls below the threshold the device checkpoints and
        #: sleeps until power returns.  Periods shorter than the
        #: threshold collapse faster than the comparator can react — the
        #: paper's "imprecise" hardware systems — so no checkpoint fires
        #: and the partial execution is re-run from the previous
        #: checkpoint.  Only meaningful with a non-continuous supply.
        self.jit_checkpoint_threshold = jit_checkpoint_threshold
        self._jit_fired = False
        self.stats = ExecutionStats()

        self.memory = bytearray(program.initial_memory)
        self.regs: Dict[str, int] = {f"r{i}": 0 for i in range(13)}
        self.regs["sp"] = STACK_TOP - 64
        self.regs["lr"] = HALT_ADDRESS & M32
        self.pc = program.entry
        self.last_cmp: Tuple[int, int] = (0, 0)
        self.interrupts_enabled = True
        self.pending_interrupt = False
        self.region_cycles = 0
        self._next_interrupt = interrupt_interval if interrupt_interval else None
        # double-buffered checkpoint: the initial (boot) checkpoint holds
        # the pristine entry state
        self._ckpt_active = (dict(self.regs), self.pc, self.last_cmp)
        self._halt_sentinel = HALT_ADDRESS & M32
        self._failures_since_checkpoint = 0
        #: on-time already used in the current power-on period by a run
        #: that paused (``run(pause_at=...)``); 0 otherwise
        self._period_used = 0

    # -- memory -----------------------------------------------------------
    def read_mem(self, addr: int, size: int) -> int:
        if addr + size > len(self.memory):
            raise EmulationError(f"load out of bounds: 0x{addr:x}")
        if self.war is not None:
            self.war.on_read(addr, size)
        return int.from_bytes(self.memory[addr : addr + size], "little")

    def write_mem(self, addr: int, size: int, value: int) -> None:
        if addr + size > len(self.memory):
            raise EmulationError(f"store out of bounds: 0x{addr:x}")
        war = self.war
        if war is not None:
            before = len(war.violations)
            war.on_write(addr, size, self.pc)
            trace = self._trace
            if trace is not None:
                # the run loop synchronises ``stats.cycles`` (and ``pc``)
                # before a traced store, so the recorded cycle is the
                # cumulative on-time before this store's cost
                trace.on_store(self.stats.cycles, self.pc, addr)
                if len(war.violations) != before:
                    trace.on_war_violation(self.stats.cycles, self.pc, addr)
        self.memory[addr : addr + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(
            size, "little"
        )

    # -- checkpointing ------------------------------------------------------
    def _take_checkpoint(self, cause: str, next_pc: Optional[int] = None) -> None:
        # Double buffering: the new snapshot only becomes active once it
        # is complete, so a power failure mid-checkpoint restores the old
        # one.  Instruction-granular power failures make the snapshot
        # atomic here; the buffers live in reserved NVM outside the
        # program's address space.
        if next_pc is None:
            next_pc = self.pc + 1  # resume after the checkpoint instruction
        self._ckpt_active = (dict(self.regs), next_pc, self.last_cmp)
        self._failures_since_checkpoint = 0
        self.stats.record_checkpoint(cause, self.region_cycles)
        self.region_cycles = 0
        if self.war is not None:
            self.war.on_checkpoint()
        if self._trace is not None:
            self._trace.on_checkpoint(self.stats.cycles, self.pc, cause)

    def _restore_checkpoint(self) -> None:
        regs, pc, cmp_state = self._ckpt_active
        self.regs = dict(regs)
        self.pc = pc
        self.last_cmp = cmp_state
        self.interrupts_enabled = True
        self.pending_interrupt = False
        self.region_cycles = 0
        if self.war is not None:
            self.war.on_power_restore()
        if self._trace is not None:
            self._trace.on_restore(self.stats.cycles, self.pc)

    # -- interrupts -------------------------------------------------------------
    def _fire_interrupt(self) -> None:
        """Hardware exception entry: stack r0-r3, r12, lr, pc, xPSR."""
        sp = (self.regs["sp"] - 32) & M32
        self.regs["sp"] = sp
        frame = [
            self.regs["r0"], self.regs["r1"], self.regs["r2"], self.regs["r3"],
            self.regs["r12"], self.regs["lr"], self.pc & M32, 0,
        ]
        for i, word in enumerate(frame):
            self.write_mem(sp + 4 * i, 4, word)
        # ISR body is opaque; exception return unstacks the frame.
        for i in range(8):
            self.read_mem(sp + 4 * i, 4)
        self.regs["sp"] = (sp + 32) & M32
        cost = (
            self.costs.interrupt_entry_cycles
            + self.costs.isr_cycles
            + self.costs.interrupt_exit_cycles
        )
        self.stats.cycles += cost
        self.region_cycles += cost
        self.stats.interrupts += 1

    # -- snapshots ----------------------------------------------------------------
    def snapshot(self) -> MachineSnapshot:
        """Capture the complete device state between two instructions:
        the NVM image, registers, pc, comparison flags, interrupt state,
        the checkpoint buffer and failure counter, a copy of the
        statistics and the WAR checker's region shadow, violations and
        region index.  Event traces are not captured."""
        if self._trace is not None:
            raise ValueError("a traced machine cannot be snapshotted")
        war = self.war
        return MachineSnapshot(
            memory=bytes(self.memory),
            regs=dict(self.regs),
            pc=self.pc,
            last_cmp=self.last_cmp,
            interrupts_enabled=self.interrupts_enabled,
            pending_interrupt=self.pending_interrupt,
            next_interrupt=self._next_interrupt,
            region_cycles=self.region_cycles,
            period_used=self._period_used,
            jit_fired=self._jit_fired,
            checkpoint=self._ckpt_active,
            failures_since_checkpoint=self._failures_since_checkpoint,
            stats=self.stats.copy(),
            war=None if war is None else (
                dict(war.words), list(war.violations), war.region_index),
        )

    def restore(self, snapshot: MachineSnapshot) -> None:
        """Continue from ``snapshot`` exactly as the captured machine
        would.  The snapshot must come from a machine over the same
        program, cost model, interrupt interval and WAR-checking mode."""
        if (snapshot.war is None) != (self.war is None):
            raise ValueError("snapshot and machine differ in WAR checking")
        # copy in place: a second 1 MiB buffer per replay costs page faults
        memoryview(self.memory)[:] = snapshot.memory
        self.regs = dict(snapshot.regs)
        self.pc = snapshot.pc
        self.last_cmp = snapshot.last_cmp
        self.interrupts_enabled = snapshot.interrupts_enabled
        self.pending_interrupt = snapshot.pending_interrupt
        self._next_interrupt = snapshot.next_interrupt
        self.region_cycles = snapshot.region_cycles
        self._period_used = snapshot.period_used
        self._jit_fired = snapshot.jit_fired
        self._ckpt_active = snapshot.checkpoint
        self._failures_since_checkpoint = snapshot.failures_since_checkpoint
        self.stats = snapshot.stats.copy()
        if self.war is not None:
            words, violations, region_index = snapshot.war
            self.war.words = dict(words)
            self.war.violations = list(violations)
            self.war.region_index = region_index

    # -- main loop ---------------------------------------------------------------
    def run(
        self,
        power: Optional[PowerSupply] = None,
        max_instructions: int = 100_000_000,
        pause_at: Optional[int] = None,
    ) -> ExecutionStats:
        """Interpret the program until it halts; returns the statistics,
        cumulative over every run of this machine.

        ``power`` drives power failures (``None``: continuous power).
        ``pause_at`` runs under continuous power instead and returns,
        un-halted, just before the instruction that would overrun
        ``pause_at`` on-time cycles of the current power-on period —
        the instruction a supply whose first period is ``pause_at``
        would fail.  A later ``run`` resumes there, on this machine or
        on a fresh one given its :meth:`snapshot`; resumed under a
        supply whose first period is at least ``pause_at``, it matches
        a from-reset run under that supply exactly.

        Hot state lives in locals and is synchronised with the instance
        around every slow-path event and on exit.
        """
        decoded = self._decoded
        costs = self.costs
        stats = self.stats
        regs = self.regs
        memory = self.memory
        war = self.war
        trace = self._trace
        cc = stats.call_counts
        # the checker's word shadow, updated inline by aligned word
        # accesses; traced stores go through ``write_mem`` for its hooks
        shadow = war.words if war is not None else None
        wshadow = shadow if trace is None else None
        read_word = _READ_WORD

        pc = self.pc
        cmp_a, cmp_b = self.last_cmp
        cycles = stats.cycles
        icount = stats.instructions
        region_cycles = self.region_cycles
        halt_sentinel = self._halt_sentinel
        jit_threshold = self.jit_checkpoint_threshold
        jit_enabled = jit_threshold is not None
        jit_fired = self._jit_fired
        interrupt_interval = self.interrupt_interval
        next_interrupt = self._next_interrupt
        checkpoint_cycles = costs.checkpoint_cycles

        on_iter = None
        budget = None
        if pause_at is not None:
            if power is not None and not power.is_continuous:
                raise ValueError("pause_at runs under continuous power")
            if jit_enabled:
                raise ValueError("pause_at does not model JIT checkpointing")
            # the pause point is a budget without a next period
            budget = pause_at
        elif power is not None and not power.is_continuous:
            on_iter = power.on_durations()
            budget = next(on_iter)
            if jit_enabled and budget <= jit_threshold:
                jit_fired = True  # collapsed before the comparator
                self._jit_fired = True
        period_used = self._period_used
        paused = False

        addr = 0
        try:
            while True:
                if icount >= max_instructions:
                    stats.instructions = icount
                    stats.cycles = cycles
                    raise EmulationLimit(
                        f"exceeded {max_instructions} instructions "
                        f"({stats.summary()})"
                    )
                d = decoded[pc]
                cost = d[1]

                if budget is not None and period_used + cost > budget:
                    if on_iter is None:
                        paused = True
                        break
                    # ---- power failure -----------------------------------
                    stats.instructions = icount
                    stats.cycles = cycles
                    stats.power_failures += 1
                    stats.reexecuted_cycles += region_cycles
                    self._failures_since_checkpoint += 1
                    if self._failures_since_checkpoint > 1000:
                        raise NoForwardProgress(
                            "the idempotent region does not fit the power-on "
                            f"window ({stats.summary()})"
                        )
                    boot = costs.boot_cycles + costs.restore_cycles
                    dead_periods = 0
                    budget = next(on_iter)
                    while budget < boot:
                        dead_periods += 1
                        stats.power_failures += 1
                        if dead_periods > 10_000:
                            raise NoForwardProgress(
                                "power-on periods shorter than boot + restore"
                            )
                        budget = next(on_iter)
                    period_used = boot
                    cycles += boot
                    stats.cycles = cycles
                    stats.boot_cycles += boot
                    # a too-short period collapses before the comparator
                    jit_fired = jit_enabled and budget - boot <= jit_threshold
                    self._jit_fired = jit_fired
                    self._restore_checkpoint()
                    regs = self.regs
                    pc = self.pc
                    cmp_a, cmp_b = self.last_cmp
                    region_cycles = 0
                    continue

                icount += 1
                k = d[0]

                # dispatch ordered by measured dynamic frequency across the
                # benchsuite (see docs/PERFORMANCE.md)
                if k == K_MOV_R:
                    regs[d[2]] = regs[d[3]]
                elif k == K_ADD_RR:
                    regs[d[2]] = (regs[d[3]] + regs[d[4]]) & M32
                elif k == K_LDR4:
                    addr = (regs[d[3]] + d[4]) & M32
                    regs[d[2]] = _U32(memory, addr)[0]
                    if war is not None:
                        if shadow is None or addr & 3:
                            war.on_read(addr, 4)
                        else:
                            mask = shadow.get(addr >> 2, 0)
                            if read_word[mask] != mask:
                                shadow[addr >> 2] = read_word[mask]
                elif k == K_MOV_I:
                    regs[d[2]] = d[3]
                elif k == K_SHIFT:
                    a = d[4] if d[3] else regs[d[4]]
                    amount = (d[6] if d[5] else regs[d[6]]) & 0xFF
                    mode = d[2]
                    if mode == 0:  # lsl
                        result = (a << amount) & M32 if amount < 32 else 0
                    elif mode == 1:  # lsr
                        result = a >> amount if amount < 32 else 0
                    else:  # asr
                        result = (_signed(a) >> amount) & M32 if amount < 32 else (
                            M32 if _signed(a) < 0 else 0
                        )
                    regs[d[7]] = result
                elif k == K_ALU_RR:
                    regs[d[2]] = d[5](regs[d[3]], regs[d[4]]) & M32
                elif k == K_EXT:
                    v = d[5] if d[4] else regs[d[5]]
                    mode = d[2]
                    if mode == 0:  # sxtb
                        v &= 0xFF
                        regs[d[3]] = (v - 256 if v >= 128 else v) & M32
                    elif mode == 1:  # uxtb
                        regs[d[3]] = v & 0xFF
                    elif mode == 2:  # sxth
                        v &= 0xFFFF
                        regs[d[3]] = (v - 65536 if v >= 32768 else v) & M32
                    else:  # uxth
                        regs[d[3]] = v & 0xFFFF
                elif k == K_BCC:
                    if d[2](cmp_a, cmp_b):
                        pc = d[3]
                        cost = d[4]
                elif k == K_ADD_RI:
                    regs[d[2]] = (regs[d[3]] + d[4]) & M32
                elif k == K_CMP_RI:
                    cmp_a = regs[d[2]]
                    cmp_b = d[3]
                elif k == K_B:
                    pc = d[2]
                    cost = d[3]
                elif k == K_STR4_R:
                    addr = (regs[d[3]] + d[4]) & M32
                    if war is None:
                        _P32(memory, addr, regs[d[2]])
                    elif wshadow is None or addr & 3 or wshadow.get(addr >> 2, 0) & 15:
                        self.pc = pc
                        stats.cycles = cycles
                        self.write_mem(addr, 4, regs[d[2]])
                    else:
                        _P32(memory, addr, regs[d[2]])
                        wshadow[addr >> 2] = _WRITTEN_WORD
                elif k == K_LDR1:
                    addr = (regs[d[3]] + d[4]) & M32
                    regs[d[2]] = memory[addr]
                    if war is not None:
                        war.on_read(addr, 1)
                elif k == K_SUB_RI:
                    regs[d[2]] = (regs[d[3]] - d[4]) & M32
                elif k == K_STR1_R:
                    addr = (regs[d[3]] + d[4]) & M32
                    if war is None:
                        memory[addr] = regs[d[2]] & 0xFF
                    else:
                        self.pc = pc
                        stats.cycles = cycles
                        self.write_mem(addr, 1, regs[d[2]])
                elif k == K_CMP_RR:
                    cmp_a = regs[d[2]]
                    cmp_b = regs[d[3]]
                elif k == K_ALU_RI:
                    regs[d[2]] = d[5](regs[d[3]], d[4]) & M32
                elif k == K_SUB_RR:
                    regs[d[2]] = (regs[d[3]] - regs[d[4]]) & M32
                elif k == K_LDR2:
                    addr = (regs[d[3]] + d[4]) & M32
                    regs[d[2]] = _U16(memory, addr)[0]
                    if war is not None:
                        war.on_read(addr, 2)
                elif k == K_STR2_R:
                    addr = (regs[d[3]] + d[4]) & M32
                    if war is None:
                        _P16(memory, addr, regs[d[2]] & 0xFFFF)
                    else:
                        self.pc = pc
                        stats.cycles = cycles
                        self.write_mem(addr, 2, regs[d[2]])
                elif k == K_BL:
                    regs["lr"] = (pc + 1) & M32
                    callee = d[3]
                    cc[callee] = cc.get(callee, 0) + 1
                    pc = d[2]
                    cost = d[4]
                elif k == K_BX_LR:
                    target = regs["lr"]
                    if target == halt_sentinel:
                        cycles += cost
                        region_cycles += cost
                        stats.halted = True
                        stats.final_region_cycles = region_cycles
                        break
                    pc = target - 1
                    cost = d[2]
                elif k == K_PUSH:
                    names = d[2]
                    sp = (regs["sp"] - 4 * len(names)) & M32
                    regs["sp"] = sp
                    addr = sp
                    if war is None:
                        for name in names:
                            _P32(memory, addr, regs[name])
                            addr += 4
                    else:
                        self.pc = pc
                        stats.cycles = cycles
                        for name in names:
                            if wshadow is None or addr & 3 or wshadow.get(addr >> 2, 0) & 15:
                                self.write_mem(addr, 4, regs[name])
                            else:
                                _P32(memory, addr, regs[name])
                                wshadow[addr >> 2] = _WRITTEN_WORD
                            addr += 4
                elif k == K_POP:
                    sp = addr = regs["sp"]
                    if war is None:
                        for name in d[2]:
                            regs[name] = _U32(memory, addr)[0]
                            addr += 4
                    else:
                        for name in d[2]:
                            regs[name] = _U32(memory, addr)[0]
                            if shadow is None or addr & 3:
                                war.on_read(addr, 4)
                            else:
                                mask = shadow.get(addr >> 2, 0)
                                if read_word[mask] != mask:
                                    shadow[addr >> 2] = read_word[mask]
                            addr += 4
                    regs["sp"] = (sp + 4 * len(d[2])) & M32
                elif k == K_CKPT:
                    self.pc = pc
                    self.last_cmp = (cmp_a, cmp_b)
                    self.region_cycles = region_cycles
                    stats.cycles = cycles
                    self._take_checkpoint(d[2])
                    region_cycles = 0
                elif k == K_DIV:
                    a = d[4] if d[3] else regs[d[4]]
                    b = d[6] if d[5] else regs[d[6]]
                    if b == 0:
                        result = 0  # ARM semantics: division by zero yields 0
                    elif not d[2]:  # udiv
                        result = a // b
                    else:
                        sa, sb = _signed(a), _signed(b)
                        result = abs(sa) // abs(sb)
                        if (sa < 0) != (sb < 0):
                            result = -result
                    regs[d[7]] = result & M32
                elif k == K_CMOV_R:
                    if d[2](cmp_a, cmp_b):
                        regs[d[3]] = regs[d[4]]
                elif k == K_CMOV_I:
                    if d[2](cmp_a, cmp_b):
                        regs[d[3]] = d[4]
                elif k == K_LEA:
                    regs[d[2]] = (regs["sp"] + d[3]) & M32
                elif k == K_ADDSP:
                    regs["sp"] = (regs["sp"] + d[2]) & M32
                elif k == K_STR4_I:
                    addr = (regs[d[3]] + d[4]) & M32
                    if war is None:
                        _P32(memory, addr, d[2])
                    elif wshadow is None or addr & 3 or wshadow.get(addr >> 2, 0) & 15:
                        self.pc = pc
                        stats.cycles = cycles
                        self.write_mem(addr, 4, d[2])
                    else:
                        _P32(memory, addr, d[2])
                        wshadow[addr >> 2] = _WRITTEN_WORD
                elif k == K_STR1_I:
                    addr = (regs[d[3]] + d[4]) & M32
                    if war is None:
                        memory[addr] = d[2] & 0xFF
                    else:
                        self.pc = pc
                        stats.cycles = cycles
                        self.write_mem(addr, 1, d[2])
                elif k == K_STR2_I:
                    addr = (regs[d[3]] + d[4]) & M32
                    if war is None:
                        _P16(memory, addr, d[2] & 0xFFFF)
                    else:
                        self.pc = pc
                        stats.cycles = cycles
                        self.write_mem(addr, 2, d[2])
                elif k == K_CMP_IR:
                    cmp_a = d[2]
                    cmp_b = regs[d[3]]
                elif k == K_CMP_II:
                    cmp_a = d[2]
                    cmp_b = d[3]
                elif k == K_ALU_IR:
                    regs[d[2]] = d[5](d[3], regs[d[4]]) & M32
                elif k == K_ALU_II:
                    regs[d[2]] = d[5](d[3], d[4]) & M32
                elif k == K_CPSID:
                    self.interrupts_enabled = False
                    if trace is not None:
                        trace.record("mask", cycles, pc)
                elif k == K_CPSIE:
                    self.interrupts_enabled = True
                    if trace is not None:
                        trace.record("unmask", cycles, pc)
                    if self.pending_interrupt:
                        self.pending_interrupt = False
                        stats.instructions = icount
                        stats.cycles = cycles
                        self.pc = pc
                        self.region_cycles = region_cycles
                        self._fire_interrupt()
                        cycles = stats.cycles
                        region_cycles = self.region_cycles
                elif k == K_NOP:
                    pass
                else:
                    raise EmulationError(f"cannot execute {d[2]!r}")

                cycles += cost
                region_cycles += cost
                period_used += cost
                pc += 1

                # JIT checkpoint: the comparator sees the capacitor voltage
                # crossing the configured threshold; the device saves state
                # and sleeps out the remainder of the discharge.
                if (
                    jit_enabled
                    and budget is not None
                    and not jit_fired
                    and budget - period_used <= jit_threshold
                ):
                    jit_fired = True
                    self._jit_fired = True
                    cycles += checkpoint_cycles
                    region_cycles += checkpoint_cycles
                    period_used += checkpoint_cycles
                    self.pc = pc
                    self.last_cmp = (cmp_a, cmp_b)
                    self.region_cycles = region_cycles
                    stats.cycles = cycles
                    self._take_checkpoint("jit", next_pc=pc)
                    region_cycles = 0
                    period_used = budget  # sleep until the brown-out

                # periodic timer interrupt
                if next_interrupt is not None and cycles >= next_interrupt:
                    next_interrupt += interrupt_interval
                    if self.interrupts_enabled:
                        stats.instructions = icount
                        stats.cycles = cycles
                        self.pc = pc
                        self.region_cycles = region_cycles
                        self._fire_interrupt()
                        cycles = stats.cycles
                        region_cycles = self.region_cycles
                    else:
                        self.pending_interrupt = True
        except (IndexError, struct.error):
            # the inline memory accessors bounds-check by construction:
            # bytearray indexing / struct packing reject any access past
            # the 1 MB address space
            raise EmulationError(
                f"memory access out of bounds: 0x{addr:x}") from None
        finally:
            # every exit — halt, pause or error — leaves the counters at
            # the last (or faulting) instruction
            stats.instructions = icount
            stats.cycles = cycles
            self.pc = pc
            self.last_cmp = (cmp_a, cmp_b)
            self.region_cycles = region_cycles
            self._next_interrupt = next_interrupt
            self._period_used = period_used if paused else 0
        return stats

    # -- post-run inspection ---------------------------------------------------
    def read_global(self, name: str, count: int = 1, size: int = 4, signed: bool = False):
        """Read a global scalar or array from memory after (or during) a
        run.  Returns an int for ``count == 1``, else a list."""
        addr = self.program.global_addr[name]
        values = []
        for i in range(count):
            raw = int.from_bytes(
                self.memory[addr + i * size : addr + (i + 1) * size], "little"
            )
            if signed and raw >= 1 << (8 * size - 1):
                raw -= 1 << (8 * size)
            values.append(raw)
        return values[0] if count == 1 else values
