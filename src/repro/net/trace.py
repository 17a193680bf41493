"""Trace-driven workloads: record, save, replay.

Production studies replay captured request streams rather than
synthetic draws (and the paper's §5 notes testbeds know the full
request stream in advance). A :class:`Trace` holds per-round task
vectors; it can be recorded from any generator, round-tripped through
CSV, and fed to the timestep simulation in place of the Bernoulli mix.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError
from repro.net.packet import TaskType

__all__ = ["Trace"]


@dataclass
class Trace:
    """A replayable sequence of per-round task vectors.

    Attributes:
        rounds: list of task-type lists, one inner list per timestep;
            every round must cover the same number of balancers.
    """

    rounds: list[list[TaskType]] = field(default_factory=list)

    def __post_init__(self) -> None:
        widths = {len(r) for r in self.rounds}
        if len(widths) > 1:
            raise ConfigurationError(
                f"rounds have inconsistent balancer counts: {sorted(widths)}"
            )

    @property
    def num_rounds(self) -> int:
        """Recorded timesteps."""
        return len(self.rounds)

    @property
    def num_balancers(self) -> int:
        """Balancers per round (0 for an empty trace)."""
        return len(self.rounds[0]) if self.rounds else 0

    def append(self, tasks: list[TaskType]) -> None:
        """Record one round."""
        if self.rounds and len(tasks) != self.num_balancers:
            raise ConfigurationError(
                f"round has {len(tasks)} tasks, trace uses "
                f"{self.num_balancers}"
            )
        self.rounds.append(list(tasks))

    def replayer(self, *, cycle: bool = False) -> "TraceReplayer":
        """A workload (``draw_batch``) that replays this trace."""
        return TraceReplayer(self, cycle=cycle)

    def colocate_fraction(self) -> float:
        """Overall fraction of type-C tasks."""
        total = sum(len(r) for r in self.rounds)
        if total == 0:
            raise ConfigurationError("empty trace")
        hits = sum(
            1 for r in self.rounds for t in r if t is TaskType.COLOCATE
        )
        return hits / total

    # -- serialization ------------------------------------------------------

    def to_csv(self) -> str:
        """One line per round; tasks as single letters (C/E)."""
        out = io.StringIO()
        out.write("round,tasks\n")
        for index, tasks in enumerate(self.rounds):
            letters = "".join(t.value for t in tasks)
            out.write(f"{index},{letters}\n")
        return out.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "Trace":
        """Inverse of :meth:`to_csv`.

        The ``round`` column is validated, not discarded: indices must
        be exactly ``0..n-1`` in order, so a shuffled, duplicated, or
        gapped trace (e.g. a truncated copy or a bad merge of two
        captures) fails loudly instead of silently replaying rounds
        against the wrong timesteps.
        """
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines or lines[0] != "round,tasks":
            raise ConfigurationError("missing 'round,tasks' CSV header")
        rounds = []
        for position, line in enumerate(lines[1:]):
            try:
                index_text, letters = line.split(",", 1)
            except ValueError as exc:
                raise ConfigurationError(f"malformed trace line {line!r}") from exc
            try:
                index = int(index_text)
            except ValueError as exc:
                raise ConfigurationError(
                    f"non-integer round index {index_text!r} in line {line!r}"
                ) from exc
            if index != position:
                raise ConfigurationError(
                    f"round indices must be exactly 0..n-1 in order: "
                    f"expected {position}, got {index} (shuffled, "
                    f"duplicated, or gapped trace)"
                )
            try:
                rounds.append([TaskType(ch) for ch in letters])
            except ValueError as exc:
                raise ConfigurationError(
                    f"unknown task letter in {letters!r}"
                ) from exc
        return cls(rounds=rounds)

    def save(self, path: str | Path) -> None:
        """Write the CSV form to a file."""
        Path(path).write_text(self.to_csv(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        """Read a trace from a CSV file."""
        return cls.from_csv(Path(path).read_text(encoding="utf-8"))


class TraceReplayer:
    """Workload adapter replaying a :class:`Trace` round by round.

    Implements the same ``draw_batch(rng, steps)`` interface as
    :class:`~repro.net.workload.BernoulliTaskMix` (the rng is unused —
    the trace is deterministic). It replays the rounds the trace held
    when the replayer was made.
    """

    def __init__(self, trace: Trace, *, cycle: bool = False) -> None:
        if trace.num_rounds == 0:
            raise ConfigurationError("cannot replay an empty trace")
        self._bits = np.array(
            [[t.bit for t in r] for r in trace.rounds], dtype=np.uint8
        )
        self._bits.setflags(write=False)
        self._cycle = cycle
        self._cursor = 0
        self.num_balancers = trace.num_balancers

    def draw_batch(self, rng: np.random.Generator, steps: int) -> np.ndarray:
        """The next ``steps`` rounds as a ``(steps, N)`` bit matrix.

        Bit encoding follows :attr:`~repro.net.packet.TaskType.bit`
        (1 = type-C). Advances the replay cursor by ``steps``, so
        consecutive batches continue each other; cycling wraps around to
        round 0, and a non-cycling replayer raises when the trace cannot
        cover the batch.
        """
        if steps < 1:
            raise ConfigurationError("need at least one timestep")
        num_rounds = len(self._bits)
        if self._cycle:
            index = (self._cursor + np.arange(steps)) % num_rounds
            self._cursor = int((self._cursor + steps) % num_rounds)
            return self._bits[index]
        if self._cursor + steps > num_rounds:
            raise ConfigurationError(
                f"trace exhausted after {num_rounds} rounds"
            )
        start = self._cursor
        self._cursor += steps
        return self._bits[start : start + steps]
