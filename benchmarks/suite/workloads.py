"""The six benchmark workloads: inputs, one timed unit of work, output checks.

Each workload derives every input from the run's ``--seed`` and its own name
(:func:`rng_for`), so the same seed always gives the same inputs and two
workloads never share a stream. A repeat calls :meth:`Workload.setup` (the
imports have already happened; this is the one warm-up call on a tiny input),
then :meth:`Workload.run` under the timer, then :meth:`Workload.check` outside
it. ``check`` returns named pass/fail results; the harness adds one more per
repeat, that the repeat's outputs equal the first repeat's.

The reason each workload exists is in its docstring and in ``README.md``.
"""

from __future__ import annotations

import math
import statistics
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.exec import SweepRunner
from repro.games import (
    advantage_decisions,
    chsh_nonlocal_game,
    classical_bias_batch,
    ffl_game,
    has_quantum_advantage,
    magic_square_game,
    multi_class_colocation_game,
    quantum_value_bounds,
    sample_game_batch,
    screen_game_batch,
)
from repro.games.batch import (
    STAGES,
    GameBatch,
    screen_advantage_batch,
)
from repro.games.bounds import sample_game_family, screen_nonlocal_games
from repro.games.nonlocal_games import NonlocalGame
from repro.lb import CHSHPairedAssignment, RandomAssignment, simulation

__all__ = ["Output", "WORKLOADS", "Workload", "rng_for", "sweep_point"]

#: Sweep worker processes; equal to ``nproc`` on the 2-core reference box.
JOBS = 2


def rng_for(seed: int, *tags) -> np.random.Generator:
    """A generator determined by the run seed and a tag path such as
    ``("fig3_paper", 0.5)``; distinct tags give independent streams."""
    tag = ":".join(str(part) for part in tags)
    return np.random.default_rng([int(seed), zlib.crc32(tag.encode("utf-8"))])


@dataclass
class Output:
    """What one timed unit produced.

    Attributes:
        items: work items completed (games, balancer-steps or sweep points).
        values: plain-JSON outputs; every repeat of a run must produce equal
            values.
        seconds: the time basis for throughput when it is not the unit's wall
            time (``sweep_warm`` uses its median pass time).
        extras: further numbers for the record (pass-time percentiles, worker
            busy time from the sweep's ``RunReport``).
        detail: in-process objects the checks need; not recorded.
    """

    items: int
    values: object
    seconds: float | None = None
    extras: dict = field(default_factory=dict)
    detail: object = None


class Workload:
    """Base class: one named workload bound to a seed and a scratch dir."""

    name = ""
    unit = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = int(seed)
        self.workdir = Path(workdir)

    def setup(self) -> None:
        """The warm-up call on a tiny input (timed as part of ``setup_s``)."""

    def run(self) -> Output:
        """The timed unit of work."""
        raise NotImplementedError

    def check(self, output: Output) -> dict[str, bool]:
        """Named correctness checks on ``output`` (not timed)."""
        raise NotImplementedError


def stage_rule_holds(report) -> bool:
    """Every Fig 3 verdict agrees with the bound of the stage that decided it."""
    stages = np.asarray(report.stages)
    verdicts = report.verdicts
    classical = report.classical_bias + report.threshold
    margin = report.margin
    rules = {
        "perfect": ~verdicts & (classical >= 1.0 + margin),
        "lower": verdicts & (report.lower_bounds > classical + margin),
        "upper": ~verdicts & (report.upper_bounds <= classical - margin),
        "sdp": verdicts == (report.sdp_objectives > classical),
    }
    return all(
        bool(rules[name][stages == code].all())
        for code, name in enumerate(STAGES)
    )


def _fig3_values(report) -> list:
    return [report.verdicts.tolist(), report.stages.tolist()]


class Fig3Paper(Workload):
    """The paper's Fig 3: 5 task types, exclusivity 0..1 in steps of 0.1,
    300 fresh games per point, default screening budget. Nearly every game
    is settled by the alternating ascent, so the SDP layer is bypassed."""

    name = "fig3_paper"
    unit = "games/s"
    vertices = 5
    points = tuple(round(0.1 * step, 1) for step in range(11))
    games = 300

    def setup(self) -> None:
        screen_advantage_batch(4, 0.5, 4, rng_for(self.seed, self.name, "warmup"))

    def run(self) -> Output:
        reports = [
            screen_advantage_batch(
                self.vertices, p, self.games, rng_for(self.seed, self.name, p)
            )
            for p in self.points
        ]
        return Output(
            items=self.games * len(self.points),
            values=[_fig3_values(report) for report in reports],
            detail=reports,
        )

    def check(self, output: Output) -> dict[str, bool]:
        # The reference path samples games one at a time from the same
        # stream, so its first two games are the batch's first two.
        reference = all(
            np.array_equal(
                advantage_decisions(
                    self.vertices,
                    p,
                    2,
                    rng_for(self.seed, self.name, p),
                    method="reference",
                ),
                report.verdicts[:2],
            )
            for p, report in zip(self.points, output.detail)
        )
        return {
            "reference_verdicts": reference,
            "stage_bounds": all(stage_rule_holds(r) for r in output.detail),
        }


class Fig3Scale(Workload):
    """The stacked ADMM SDP path at 8 task types: 8 games of one Fig 3 point
    (p = 0.5) with the screening ascent switched off, so every game that is
    not classically perfect escalates to ``solve_diagonal_sdp_batch``.

    The games come from one fixed draw and the seed relabels each game's
    task types. Freshly drawn games made throughput vary 25-fold between
    seeds: at the default budget only 0-7 of 105 games escalate, each after
    10^4-10^5 ADMM iterations. A relabeled game keeps its biases and its SDP
    is a permutation of the original, so the iteration count is the same for
    every seed."""

    name = "fig3_scale"
    unit = "games/s"
    vertices = 8
    games = 8
    budget = {"restarts": 1, "iterations": 0}

    def _corpus(self) -> GameBatch:
        return sample_game_batch(
            self.vertices, 0.5, self.games, np.random.default_rng(0)
        )

    def setup(self) -> None:
        corpus = self._corpus()
        rng = rng_for(self.seed, self.name)
        targets = []
        for target in corpus.targets:
            perm = rng.permutation(self.vertices)
            targets.append(target[np.ix_(perm, perm)])
        self.batch = GameBatch(corpus.distribution, np.stack(targets))
        warmup = sample_game_batch(4, 0.5, 4, rng_for(self.seed, self.name, "warmup"))
        screen_game_batch(warmup, **self.budget)

    def run(self) -> Output:
        report = screen_game_batch(self.batch, **self.budget)
        return Output(items=self.games, values=_fig3_values(report), detail=report)

    def check(self, output: Output) -> dict[str, bool]:
        report = output.detail
        corpus_bias = classical_bias_batch(self._corpus().cost_matrices())
        return {
            "reference_verdicts": all(
                has_quantum_advantage(self.batch.game(index))
                == report.verdicts[index]
                for index in range(2)
            ),
            "stage_bounds": stage_rule_holds(report),
            "relabel_invariant": bool(
                np.allclose(corpus_bias, report.classical_bias, atol=1e-12)
            ),
        }


def _known_games():
    """``(game, classical value, quantum value)`` for the sandwich check."""
    return (
        (chsh_nonlocal_game(), 0.75, math.cos(math.pi / 8) ** 2),
        (multi_class_colocation_game(3), 7.0 / 9.0, 5.0 / 6.0),
        (ffl_game(), 2.0 / 3.0, 2.0 / 3.0),
        (magic_square_game(), 8.0 / 9.0, 1.0),
    )


def relabel_inputs(game: NonlocalGame, perm_x, perm_y) -> NonlocalGame:
    """The same game with Alice's and Bob's inputs renamed; every value of
    the game is unchanged."""
    return NonlocalGame(
        name=game.name,
        prob_mat=game.prob_mat[np.ix_(perm_x, perm_y)],
        pred_mat=game.pred_mat[:, :, perm_x][:, :, :, perm_y],
    )


class NonlocalCascade(Workload):
    """General (non-XOR) games through ``screen_nonlocal_games``: 32 random
    games with 3 inputs and 2 outputs per side, win density 0.6, see-saw with
    5 restarts of 200 iterations, NPA level 1+AB.

    The NPA solve is heavy-tailed (ADMM iterations per game have a
    coefficient of variation near 2), so freshly drawn games would make
    throughput a property of the seed. The games therefore come from one
    fixed draw, and the seed renames each game's inputs: the program
    receives different inputs, every game keeps its values, and its NPA
    problem is a permutation of the original, so the work done per seed is
    the same."""

    name = "nonlocal_cascade"
    unit = "games/s"
    corpus = ("random-nonlocal", 3, 0.6, 32)
    restarts = 5
    iterations = 200

    def _corpus(self) -> list[NonlocalGame]:
        return sample_game_family(*self.corpus, np.random.default_rng(0))

    def setup(self) -> None:
        rng = rng_for(self.seed, self.name)
        self.games = []
        for game in self._corpus():
            n_x, n_y = game.num_inputs
            self.games.append(
                relabel_inputs(game, rng.permutation(n_x), rng.permutation(n_y))
            )
        warmup = sample_game_family(
            "random-nonlocal", 2, 0.6, 2, rng_for(self.seed, self.name, "warmup")
        )
        screen_nonlocal_games(warmup, restarts=1, iterations=5)

    def run(self) -> Output:
        report = screen_nonlocal_games(
            self.games, restarts=self.restarts, iterations=self.iterations
        )
        values = [
            report.verdicts.tolist(),
            list(report.stages),
            report.classical_values.tolist(),
        ]
        return Output(items=len(self.games), values=values, detail=report)

    def check(self, output: Output) -> dict[str, bool]:
        report = output.detail
        sandwich = True
        for game, classical, quantum in _known_games():
            bounds = quantum_value_bounds(game, method="general", npa_level="1")
            sandwich &= (
                abs(bounds.classical_value - classical) < 1e-9
                and bounds.lower_bound <= quantum + 1e-7
                and bounds.upper_bound >= quantum - 1e-7
                and bounds.classical_value <= bounds.lower_bound + 1e-9
            )
        threshold = report.threshold
        stage_bounds = True
        for index, stage in enumerate(report.stages):
            classical = report.classical_values[index] + threshold
            lower = report.lower_bounds[index]
            upper = report.upper_bounds[index]
            verdict = bool(report.verdicts[index])
            stage_bounds &= {
                "perfect": not verdict and classical >= 1.0,
                "lower": verdict and lower > classical,
                "upper": not verdict and lower <= classical and upper <= classical,
                "undecided": not verdict and lower <= classical < upper,
            }[stage]
        corpus_values = [game.classical_value() for game in self._corpus()]
        return {
            "known_sandwich": bool(sandwich),
            "stage_bounds": bool(stage_bounds),
            "relabel_invariant": bool(
                np.allclose(corpus_values, report.classical_values, atol=1e-12)
            ),
        }


class Fig4Stream(Workload):
    """Fig 4 at the knee on the streaming engine: CHSH-paired policy, 10^4
    balancers and 10^4 servers (load 1.0), 2,500 steps, vectorized engine.
    Exercises the backend serve and search kernels and the window memory."""

    name = "fig4_stream"
    unit = "balancer_steps/s"
    balancers = 10_000
    servers = 10_000
    steps = 2_500

    def _sim_seed(self) -> int:
        return int(rng_for(self.seed, self.name).integers(2**31))

    def setup(self) -> None:
        simulation.run_timestep_simulation(
            CHSHPairedAssignment(20, 20),
            timesteps=20,
            seed=self._sim_seed(),
            engine="vectorized",
        )

    def run(self) -> Output:
        result = simulation.run_timestep_simulation(
            CHSHPairedAssignment(self.balancers, self.servers),
            timesteps=self.steps,
            seed=self._sim_seed(),
            engine="vectorized",
        )
        values = [
            result.mean_queue_length,
            result.mean_queueing_delay,
            result.served,
            result.arrived,
            result.timesteps,
        ]
        return Output(
            items=self.balancers * self.steps, values=values, detail=result
        )

    def check(self, output: Output) -> dict[str, bool]:
        result = output.detail
        measured = self.steps - int(self.steps * 0.2)
        accounting = (
            result.timesteps == measured
            and result.arrived == self.balancers * measured
            and 0 < result.served
            and math.isfinite(result.mean_queue_length)
            and result.mean_queue_length >= 0.0
        )
        # The random policy draws the same numbers under any chunking, so
        # the streamed server model must give the same result either way.
        short = dict(timesteps=256, seed=self._sim_seed(), engine="vectorized")
        whole = simulation.run_timestep_simulation(
            RandomAssignment(self.balancers, self.servers), **short
        )
        chunked = simulation.run_timestep_simulation(
            RandomAssignment(self.balancers, self.servers),
            chunk_steps=64,
            **short,
        )
        return {"accounting": accounting, "chunk_invariant": whole == chunked}


POLICIES = {"random": RandomAssignment, "chsh": CHSHPairedAssignment}


def sweep_point(config: dict, seed: int):
    """Sweep work function: one ``repro fig4``-style simulation point."""
    policy = POLICIES[config["policy"]](config["balancers"], config["servers"])
    return simulation.run_timestep_simulation(
        policy, timesteps=config["steps"], seed=seed
    )


class _Sweep(Workload):
    """Shared sweep machinery: tiny Fig 4 points (20 balancers, 50 steps,
    random and CHSH at 8 loads) through ``SweepRunner(jobs=2, cache=True,
    journal=True)``, with the cache and journal in the repeat's own dir."""

    unit = "points/s"
    balancers = 20
    steps = 50
    loads = (0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0)
    seeds = 0

    def _runner(self, directory: Path) -> SweepRunner:
        return SweepRunner(
            sweep_point,
            jobs=JOBS,
            cache=True,
            cache_dir=directory / "cache",
            journal=True,
            journal_dir=directory / "journal",
            label=self.name,
        )

    def points(self, seeds: int) -> list[tuple[dict, int]]:
        base = int(rng_for(self.seed, self.name).integers(2**31))
        return [
            (
                {
                    "policy": policy,
                    "balancers": self.balancers,
                    "servers": round(self.balancers / load),
                    "steps": self.steps,
                },
                base + offset,
            )
            for policy in POLICIES
            for load in self.loads
            for offset in range(seeds)
        ]

    def setup(self) -> None:
        self._runner(self.workdir / "warmup").run(self.points(1)[::8])


def _queue_lengths(report) -> list[float]:
    return [point.value.mean_queue_length for point in report.points]


class SweepCold(_Sweep):
    """The exec write path: 800 points into an empty cache and journal, so
    every point is computed, cached (fsync'd put) and journaled (fsync'd
    append)."""

    name = "sweep_cold"
    seeds = 50

    def run(self) -> Output:
        report = self._runner(self.workdir).run(self.points(self.seeds))
        return Output(
            items=len(report.points),
            values=_queue_lengths(report),
            extras={
                "worker_busy_s": report.busy_seconds,
                "worker_utilization": report.worker_utilization,
            },
            detail=report,
        )

    def check(self, output: Output) -> dict[str, bool]:
        report = output.detail
        points = self.points(self.seeds)
        sample = range(0, len(points), 50)
        return {
            "all_computed": report.points_computed == len(points)
            and report.cache_hits == 0
            and report.points_resumed == 0
            and not report.points_failed,
            "matches_in_process": all(
                sweep_point(*points[index]) == report.points[index].value
                for index in sample
            ),
        }


class SweepWarm(_Sweep):
    """The exec read path: 400 points whose results set-up has already
    cached; the unit re-runs the whole sweep 100 times, each pass a cache
    hit for every point. Throughput uses the median pass time."""

    name = "sweep_warm"
    seeds = 25
    passes = 100

    def setup(self) -> None:
        super().setup()
        self.cold = _queue_lengths(
            self._runner(self.workdir).run(self.points(self.seeds))
        )

    def run(self) -> Output:
        runner = self._runner(self.workdir)
        points = self.points(self.seeds)
        reports, pass_seconds = [], []
        for _ in range(self.passes):
            started = time.perf_counter()
            reports.append(runner.run(points))
            pass_seconds.append(time.perf_counter() - started)
        return Output(
            items=len(points),
            values=_queue_lengths(reports[-1]),
            seconds=statistics.median(pass_seconds),
            extras={"p90_pass_s": statistics.quantiles(pass_seconds, n=10)[-1]},
            detail=reports,
        )

    def check(self, output: Output) -> dict[str, bool]:
        return {
            "hit_rate": all(r.cache_hit_rate == 1.0 for r in output.detail),
            "matches_cold": all(
                _queue_lengths(r) == self.cold for r in output.detail
            ),
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        Fig3Paper,
        Fig3Scale,
        NonlocalCascade,
        Fig4Stream,
        SweepCold,
        SweepWarm,
    )
}
