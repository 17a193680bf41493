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

from repro._blocks import uniform_blocks
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

    def draw_batch(self, rng: np.random.Generator, steps: int) -> np.ndarray:
        """``steps`` timesteps of tasks as a ``(steps, N)`` bit matrix.

        Entries use the :attr:`~repro.net.packet.TaskType.bit` encoding
        (1 = type-C). Uniform doubles fill the matrix row-major, so
        ``steps`` one-step batches draw the same tasks as one batch. They
        are drawn and compared a block of steps at a time
        (:func:`~repro._blocks.uniform_blocks`), so the only chunk-wide
        array is the result.
        """
        if steps < 1:
            raise ConfigurationError("need at least one timestep")
        bits = np.empty((steps, self.num_balancers), dtype=bool)
        for part, uniform in uniform_blocks(rng, steps, self.num_balancers):
            np.less(uniform, self.p_colocate, out=bits[part])
        return bits.view(np.uint8)

    def draw_requests(
        self, rng: np.random.Generator, time: float = 0.0
    ) -> list[Request]:
        """One timestep's tasks (one :meth:`draw_batch` row), wrapped as
        :class:`Request` objects."""
        bits = self.draw_batch(rng, 1)[0]
        return [
            Request(task_type=TaskType.from_bit(b), arrival_time=time, source=i)
            for i, b in enumerate(bits)
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
        # The narrowest unsigned type that holds the largest class.
        self._class_dtype = np.min_scalar_type(probs.size - 1)

    @property
    def num_classes(self) -> int:
        """Number of task classes."""
        return len(self.class_probabilities)

    def _classes_from_uniform(self, uniform: np.ndarray) -> np.ndarray:
        classes = np.searchsorted(self._cumulative, uniform, side="right")
        return np.minimum(classes, self.num_classes - 1, out=classes)

    def draw_batch(self, rng: np.random.Generator, steps: int) -> np.ndarray:
        """``steps`` timesteps of classes as a ``(steps, N)`` int matrix.

        The classes are unsigned, uint8 up to 256 classes and wider past
        that. Uniform doubles fill the matrix row-major, so ``steps``
        one-step batches draw the same classes as one batch. They are
        drawn and bisected a block of steps at a time
        (:func:`~repro._blocks.uniform_blocks`), so the only chunk-wide
        array is the result.
        """
        if steps < 1:
            raise ConfigurationError("need at least one timestep")
        classes = np.empty((steps, self.num_balancers), dtype=self._class_dtype)
        for part, uniform in uniform_blocks(rng, steps, self.num_balancers):
            classes[part] = self._classes_from_uniform(uniform)
        return classes


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
