"""Workload generators for the load-balancing experiments.

Fig 4 draws, per timestep and per balancer, a type-C or type-E task with
equal probability; :class:`BernoulliTaskMix` is that generator. The DES
caveat studies use :class:`PoissonArrivals`. Multi-subtype workloads
exercise the §4.1 caveat that dedicated-pool classical strategies break
when "multiple subtypes of type-C tasks ... do not like being mixed".
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.net.packet import Request, TaskType

__all__ = [
    "BernoulliTaskMix",
    "MultiClassTaskMix",
    "PoissonArrivals",
    "SubtypedTaskMix",
]


class BernoulliTaskMix:
    """Per-balancer, per-timestep task draw: type-C with probability ``p_c``."""

    def __init__(self, num_balancers: int, p_colocate: float = 0.5) -> None:
        if num_balancers < 1:
            raise ConfigurationError("need at least one balancer")
        if not 0.0 <= p_colocate <= 1.0:
            raise ConfigurationError(f"p_colocate {p_colocate} outside [0, 1]")
        self.num_balancers = num_balancers
        self.p_colocate = p_colocate

    def draw(self, rng: np.random.Generator) -> list[TaskType]:
        """One timestep's tasks, one per balancer."""
        bits = rng.random(self.num_balancers) < self.p_colocate
        return [TaskType.COLOCATE if b else TaskType.EXCLUSIVE for b in bits]

    def draw_batch(self, rng: np.random.Generator, steps: int) -> np.ndarray:
        """``steps`` timesteps of tasks as a ``(steps, N)`` bit matrix.

        Entries use the :attr:`~repro.net.packet.TaskType.bit` encoding
        (1 = type-C). The batch consumes ``rng`` exactly like ``steps``
        successive :meth:`draw` calls (uniform doubles fill row-major),
        so batched and per-step workloads see identical task streams.
        """
        if steps < 1:
            raise ConfigurationError("need at least one timestep")
        bits = rng.random((steps, self.num_balancers)) < self.p_colocate
        return bits.view(np.uint8)

    def draw_requests(
        self, rng: np.random.Generator, time: float = 0.0
    ) -> list[Request]:
        """Same, wrapped as :class:`Request` objects."""
        return [
            Request(task_type=t, arrival_time=time, source=i)
            for i, t in enumerate(self.draw(rng))
        ]


class MultiClassTaskMix:
    """Per-balancer, per-timestep draw over ``C`` integer task classes.

    Class 0 is type-E; classes ``1..C-1`` are mutually incompatible
    type-C subtypes (the §4.1 caveat). Tasks are plain integers — the
    inputs of a general nonlocal game — so the timestep engines route
    them straight into multi-input policies such as
    :class:`~repro.lb.policies.MultiClassPairedAssignment` (the
    :class:`TaskType` bit encoding is the ``C = 2`` special case).
    """

    def __init__(
        self,
        num_balancers: int,
        class_probabilities: Sequence[float] = (0.5, 0.25, 0.25),
    ) -> None:
        if num_balancers < 1:
            raise ConfigurationError("need at least one balancer")
        probs = np.asarray(class_probabilities, dtype=float)
        if probs.ndim != 1 or probs.size < 2:
            raise ConfigurationError("need at least two task classes")
        if (probs < 0).any() or abs(probs.sum() - 1.0) > 1e-9:
            raise ConfigurationError(
                "class probabilities must form a distribution"
            )
        self.num_balancers = num_balancers
        self.class_probabilities = tuple(float(p) for p in probs)
        self._cumulative = np.minimum(probs.cumsum(), 1.0)

    @property
    def num_classes(self) -> int:
        """Number of task classes."""
        return len(self.class_probabilities)

    def _classes_from_uniform(self, uniform: np.ndarray) -> np.ndarray:
        classes = np.searchsorted(self._cumulative, uniform, side="right")
        return np.minimum(classes, self.num_classes - 1).astype(np.uint8)

    def draw(self, rng: np.random.Generator) -> list[int]:
        """One timestep's task classes, one per balancer."""
        uniform = rng.random(self.num_balancers)
        return [int(c) for c in self._classes_from_uniform(uniform)]

    def draw_batch(self, rng: np.random.Generator, steps: int) -> np.ndarray:
        """``steps`` timesteps of classes as a ``(steps, N)`` int matrix.

        Consumes ``rng`` exactly like ``steps`` successive :meth:`draw`
        calls (uniform doubles fill row-major), so batched and per-step
        workloads see identical task streams.
        """
        if steps < 1:
            raise ConfigurationError("need at least one timestep")
        uniform = rng.random((steps, self.num_balancers))
        return self._classes_from_uniform(uniform)


class SubtypedTaskMix:
    """Task mix where type-C splits into incompatible subtypes.

    Colocation only helps within a subtype; mixing subtypes on a server
    is as bad as mixing C with E. Used by the hybrid-strategy ablation.
    """

    def __init__(
        self,
        num_balancers: int,
        num_subtypes: int,
        p_colocate: float = 0.5,
    ) -> None:
        if num_subtypes < 1:
            raise ConfigurationError("need at least one subtype")
        self._mix = BernoulliTaskMix(num_balancers, p_colocate)
        self.num_subtypes = num_subtypes

    @property
    def num_balancers(self) -> int:
        """Number of balancers drawn for."""
        return self._mix.num_balancers

    def draw_requests(
        self, rng: np.random.Generator, time: float = 0.0
    ) -> list[Request]:
        """Tasks with uniformly random subtypes on the type-C draws."""
        requests = self._mix.draw_requests(rng, time)
        for request in requests:
            if request.task_type is TaskType.COLOCATE:
                request.subtype = int(rng.integers(self.num_subtypes))
        return requests


class PoissonArrivals:
    """Exponential inter-arrival request stream for the DES model."""

    def __init__(self, rate: float, p_colocate: float = 0.5) -> None:
        if rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate}")
        if not 0.0 <= p_colocate <= 1.0:
            raise ConfigurationError(f"p_colocate {p_colocate} outside [0, 1]")
        self.rate = rate
        self.p_colocate = p_colocate

    def arrivals_until(
        self, horizon: float, rng: np.random.Generator, source: int = 0
    ) -> Iterator[Request]:
        """Yield requests with arrival times up to ``horizon``."""
        time = 0.0
        while True:
            time += rng.exponential(1.0 / self.rate)
            if time > horizon:
                return
            task = (
                TaskType.COLOCATE
                if rng.random() < self.p_colocate
                else TaskType.EXCLUSIVE
            )
            yield Request(task_type=task, arrival_time=time, source=source)
