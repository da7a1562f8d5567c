"""Metric collection for MPC / MapReduce simulations.

The quantities tracked here are exactly those reported in Figure 1 of the
paper: the number of MapReduce rounds, the maximum space used by any single
machine (in words), and — as an auxiliary cost measure — the total number of
words communicated between machines.

Rounds are recorded individually (with a human-readable description and the
phase of the algorithm that generated them) so experiments can attribute
round counts to algorithm phases, e.g. "broadcast of C" versus "local ratio
on central machine".
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class RoundRecord:
    """Metrics for a single synchronous MapReduce round.

    Parameters
    ----------
    index:
        Zero-based round index within the run.
    description:
        Human-readable label for the round (e.g. ``"sample U'"``).
    phase:
        Coarser label grouping rounds into algorithm phases
        (e.g. ``"iteration 3"`` or ``"broadcast"``).
    max_machine_words:
        Maximum number of words held by any worker machine during the round.
    central_words:
        Number of words held by the central machine during the round.
    words_communicated:
        Total number of words shipped between machines in the round.
    """

    index: int
    description: str = ""
    phase: str = ""
    max_machine_words: int = 0
    central_words: int = 0
    words_communicated: int = 0

    @property
    def max_words(self) -> int:
        """Maximum space used by any machine (worker or central) this round."""
        return max(self.max_machine_words, self.central_words)


@dataclass
class RunMetrics:
    """Aggregated metrics for a full MPC run of one algorithm.

    The experiment harness compares these against the theoretical bounds
    recorded in :mod:`repro.analysis.bounds`.
    """

    algorithm: str = ""
    rounds: list[RoundRecord] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record_round(
        self,
        description: str = "",
        phase: str = "",
        *,
        max_machine_words: int = 0,
        central_words: int = 0,
        words_communicated: int = 0,
    ) -> RoundRecord:
        """Append a round record and return it."""
        record = RoundRecord(
            index=len(self.rounds),
            description=description,
            phase=phase,
            max_machine_words=int(max_machine_words),
            central_words=int(central_words),
            words_communicated=int(words_communicated),
        )
        self.rounds.append(record)
        return record

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    @property
    def num_rounds(self) -> int:
        """Total number of MapReduce rounds used by the run."""
        return len(self.rounds)

    @property
    def max_space_per_machine(self) -> int:
        """Maximum number of words held by any machine in any round."""
        if not self.rounds:
            return 0
        return max(record.max_words for record in self.rounds)

    @property
    def total_communication(self) -> int:
        """Total number of words communicated across the whole run."""
        return sum(record.words_communicated for record in self.rounds)

    def phases(self) -> list[str]:
        """Return the distinct phases in order of first appearance."""
        seen: list[str] = []
        for record in self.rounds:
            if record.phase not in seen:
                seen.append(record.phase)
        return seen
