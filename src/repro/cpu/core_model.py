"""Per-core timing model.

CPI decomposition (matching the formulation Algorithm 2 assumes, after
[4]):

    CPI = CPI_ideal + CPI_llc

where ``CPI_ideal`` covers the program's base CPI plus the exposed LLC
*hit* latency ("the performance if all accesses were to hit in the LLC"),
and ``CPI_llc`` is the extra commit-stall time caused by LLC misses — the
counter modern processors expose and that the model accumulates exactly in
:attr:`llc_stall_cycles`. A miss's exposed penalty is the DRAM latency
divided by the program's memory-level parallelism.
"""

from __future__ import annotations

from repro.workloads.benchmark import BenchmarkProfile

__all__ = ["CoreTimingModel"]


class CoreTimingModel:
    """Cycle accounting for one core running one program.

    Args:
        core_id: position in the workload.
        profile: the program's timing parameters.
        llc_hit_latency: exposed cycles per LLC hit (post-overlap).
    """

    def __init__(self, core_id: int, profile: BenchmarkProfile, llc_hit_latency: float = 8.0) -> None:
        if llc_hit_latency < 0:
            raise ValueError(f"llc_hit_latency must be >= 0, got {llc_hit_latency}")
        self.core_id = core_id
        self.profile = profile
        # Read on every access: cached off the profile.
        self.cpi_base = profile.cpi_base
        self.mlp = profile.mlp
        self.llc_hit_latency = llc_hit_latency
        self.cycles = 0.0
        self.instructions = 0
        self.llc_stall_cycles = 0.0
        self.accesses = 0
        self.finished = False
        self.finish_cycles = 0.0
        self.finish_instructions = 0

    def advance(self, gap_instructions: int, hit: bool, mem_latency: float = 0.0) -> None:
        """Execute ``gap_instructions`` then one LLC access.

        Args:
            gap_instructions: instructions retired before the access.
            hit: whether the access hit in the shared LLC.
            mem_latency: DRAM latency for a miss (ignored on hits).
        """
        self.instructions += gap_instructions
        self.cycles += gap_instructions * self.cpi_base
        self.accesses += 1
        if hit:
            self.cycles += self.llc_hit_latency
        else:
            exposed = self.llc_hit_latency + mem_latency / self.mlp
            self.cycles += exposed
            self.llc_stall_cycles += exposed - self.llc_hit_latency

    def advance_local(self, gap_instructions: int, latency: float) -> None:
        """Execute ``gap_instructions`` then an access absorbed locally
        (an L1 hit): no LLC involvement, fixed ``latency`` cycles."""
        self.instructions += gap_instructions
        self.cycles += gap_instructions * self.cpi_base + latency

    def mark_finished(self) -> None:
        """Freeze the reported counters (the core keeps running for contention)."""
        if not self.finished:
            self.finished = True
            self.finish_cycles = self.cycles
            self.finish_instructions = self.instructions

    # -- reported figures (at finish when frozen, else live) -----------------

    def _report_point(self) -> tuple:
        if self.finished:
            return self.finish_cycles, self.finish_instructions
        return self.cycles, self.instructions

    def ipc(self) -> float:
        """Instructions per cycle over the reported window."""
        cycles, instructions = self._report_point()
        return instructions / cycles if cycles > 0 else 0.0

    def cpi(self) -> float:
        """Cycles per instruction over the reported window."""
        cycles, instructions = self._report_point()
        return cycles / instructions if instructions > 0 else 0.0
