"""WAR-violation absence verification (paper §5.1.1).

Every memory access of the emulated program is checked: within one
idempotent region (the span between two checkpoints), a store to an
address whose *first* access in the region was a load is a WAR violation
— re-executing the region after a power failure would make that load
observe the new value.  Unlike the middle-end analysis, this checker sees
back-end and runtime traffic too (spills, pops, interrupt stacking),
matching the paper's extension of Maioli et al.'s verification into the
back end.

Findings can be exported as :class:`~repro.diagnostics.Diagnostic` values
(level ``dynamic``) so they share one stream with the static verifiers —
the cross-check tests rely on the static verdict implying the dynamic
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..diagnostics import Diagnostic, ERROR, LEVEL_DYNAMIC, SourceLoc


@dataclass
class Violation:
    address: int
    pc: int
    function: str
    region_index: int
    #: Source location of the offending store, when the program carries
    #: debug locations (threaded frontend -> IR -> machine IR).
    loc: Optional[SourceLoc] = None

    def __str__(self):
        where = f", {self.loc}" if self.loc is not None and self.loc.known else ""
        return (
            f"WAR violation: store to 0x{self.address:x} after a load in the "
            f"same idempotent region (pc={self.pc}, fn={self.function}, "
            f"region #{self.region_index}{where})"
        )

    def to_diagnostic(self) -> Diagnostic:
        return Diagnostic(
            severity=ERROR,
            code="war-dynamic",
            message=(
                f"store to 0x{self.address:x} overwrote a location first "
                f"read in the same idempotent region (pc={self.pc})"
            ),
            function=self.function,
            region=f"#{self.region_index}",
            level=LEVEL_DYNAMIC,
            loc=self.loc,
        )


class WARChecker:
    """Tracks first accesses per idempotent region, byte-granular.

    The shadow is keyed by 32-bit word: ``words[addr >> 2]`` is a mask
    whose bit ``b`` (0-3) says byte ``b`` of the word was first *read*
    in the current region and bit ``b + 4`` that it was first
    *written*; an absent word has not been touched.  The emulator
    updates this dict inline for aligned word accesses (one probe per
    load, store, push or pop word) and calls :meth:`on_read` /
    :meth:`on_write` for everything else; a checker whose ``words`` is
    ``None`` sees every access through those two methods.
    """

    def __init__(self, record_all: bool = False,
                 site: Optional[Callable[[int], Tuple[str, Optional[SourceLoc]]]] = None):
        self.words: Dict[int, int] = {}
        self.violations: List[Violation] = []
        self.region_index = 0
        self.record_all = record_all
        #: ``pc -> (function, loc)`` of a store, looked up only when a
        #: violation is recorded without an explicit function
        self.site = site

    def on_read(self, address: int, size: int) -> None:
        words = self.words
        for a in range(address, address + size):
            bit = 1 << (a & 3)
            mask = words.get(a >> 2, 0)
            if not mask & (bit | bit << 4):
                words[a >> 2] = mask | bit

    def on_write(
        self,
        address: int,
        size: int,
        pc: int = -1,
        function: Optional[str] = None,
        loc: Optional[SourceLoc] = None,
    ) -> None:
        words = self.words
        for a in range(address, address + size):
            bit = 1 << (a & 3)
            mask = words.get(a >> 2, 0)
            if mask & bit:  # first accessed by a load: a WAR
                if function is None:
                    function, loc = self.site(pc) if self.site else ("?", loc)
                self.violations.append(
                    Violation(a, pc, function, self.region_index, loc)
                )
                if not self.record_all:
                    # Record one violation per (region, address): promote
                    # to written-first so a loop does not flood the list.
                    words[a >> 2] = mask ^ bit ^ bit << 4
            elif not mask & bit << 4:
                words[a >> 2] = mask | bit << 4

    def on_checkpoint(self) -> None:
        """A checkpoint ends the current idempotent region."""
        self.words.clear()
        self.region_index += 1

    def on_power_restore(self) -> None:
        """Restoration re-enters the region after the last checkpoint."""
        self.words.clear()

    @property
    def clean(self) -> bool:
        return not self.violations

    def to_diagnostics(self) -> List[Diagnostic]:
        return [v.to_diagnostic() for v in self.violations]
