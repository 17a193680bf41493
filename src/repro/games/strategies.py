"""Strategies for playing two-player non-local games.

Three families, mirroring the paper's comparison:

- :class:`DeterministicStrategy` — fixed output tables.
- :class:`SharedRandomnessStrategy` — a convex mixture of deterministic
  strategies (classical machines that "pre-agree on a strategy and share
  randomness", §3). Provably no better than the best deterministic
  strategy, a fact the tests check.
- :class:`QuantumStrategy` — a shared entangled state plus per-input
  binary measurements for each party. Supports both single-qubit
  measurement bases (the CHSH protocol) and multi-qubit binary
  observables (the Tsirelson construction for general XOR games).

Every strategy implements ``play(x, y, rng) -> (a, b)`` and
``behavior() -> p(a, b | x, y)`` (exact, no sampling).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import StrategyError
from repro.quantum.bases import MeasurementBasis
from repro.quantum.linalg import expand_operator, require_hermitian
from repro.quantum.measurement import measure_with_projectors
from repro.quantum.state import DensityMatrix, StateVector

__all__ = [
    "Strategy",
    "BehaviorStrategy",
    "DeterministicStrategy",
    "SharedRandomnessStrategy",
    "QuantumStrategy",
    "BinaryObservable",
]


class Strategy:
    """Interface for strategies; see module docstring."""

    def play(
        self, x: int, y: int, rng: np.random.Generator
    ) -> tuple[int, int]:
        """Sample outputs for inputs ``(x, y)``."""
        raise NotImplementedError

    def behavior(self) -> np.ndarray:
        """Exact conditional distribution ``p(a, b | x, y)``,
        shape ``(nx, ny, na, nb)``."""
        raise NotImplementedError


class BehaviorStrategy(Strategy):
    """A strategy given directly by its behavior ``p(a, b | x, y)``.

    Wraps an explicit conditional-distribution table so derived
    behaviors — e.g. a quantum strategy's statistics degraded by
    detector noise (:func:`repro.hardware.qnic.apply_measurement_flips`)
    — can flow through everything that samples from ``behavior()``
    (notably the paired Fig 4 policies) without re-deriving states or
    measurements. Only no-signaling tables describe physical strategies;
    construction checks normalization, not no-signaling.
    """

    def __init__(self, behavior: np.ndarray) -> None:
        table = np.asarray(behavior, dtype=float)
        if table.ndim != 4:
            raise StrategyError(
                f"behavior must have shape (nx, ny, na, nb), got {table.shape}"
            )
        if (table < -1e-9).any():
            raise StrategyError("behavior has negative probabilities")
        sums = table.sum(axis=(2, 3))
        if not np.allclose(sums, 1.0, atol=1e-7):
            raise StrategyError(
                "behavior rows must each sum to 1 over the output pairs"
            )
        self._behavior = table.clip(min=0.0)
        self._behavior.flags.writeable = False

    def behavior(self):
        return self._behavior

    def play(self, x, y, rng):
        nx, ny, na, nb = self._behavior.shape
        if not 0 <= x < nx or not 0 <= y < ny:
            raise StrategyError(f"inputs ({x},{y}) outside behavior table")
        flat = self._behavior[x, y].ravel()
        index = int(rng.choice(flat.size, p=flat / flat.sum()))
        return divmod(index, nb)


@dataclass(frozen=True)
class DeterministicStrategy(Strategy):
    """Fixed response tables for both parties."""

    outputs_a: tuple[int, ...]
    outputs_b: tuple[int, ...]
    num_outputs_a: int = 2
    num_outputs_b: int = 2

    def __post_init__(self) -> None:
        for label, outputs, limit in (
            ("a", self.outputs_a, self.num_outputs_a),
            ("b", self.outputs_b, self.num_outputs_b),
        ):
            if not outputs:
                raise StrategyError(f"party {label} has an empty output table")
            if any(not 0 <= o < limit for o in outputs):
                raise StrategyError(
                    f"party {label} outputs {outputs!r} exceed range {limit}"
                )
        object.__setattr__(self, "outputs_a", tuple(self.outputs_a))
        object.__setattr__(self, "outputs_b", tuple(self.outputs_b))

    def play(self, x, y, rng):
        try:
            return self.outputs_a[x], self.outputs_b[y]
        except IndexError as exc:
            raise StrategyError(f"input ({x},{y}) outside table") from exc

    def behavior(self):
        nx, ny = len(self.outputs_a), len(self.outputs_b)
        out = np.zeros((nx, ny, self.num_outputs_a, self.num_outputs_b))
        for x in range(nx):
            for y in range(ny):
                out[x, y, self.outputs_a[x], self.outputs_b[y]] = 1.0
        return out


class SharedRandomnessStrategy(Strategy):
    """A public-coin mixture of deterministic strategies."""

    def __init__(
        self, parts: Sequence[tuple[float, DeterministicStrategy]]
    ) -> None:
        if not parts:
            raise StrategyError("mixture needs at least one component")
        weights = np.array([p for p, _ in parts], dtype=float)
        if (weights < 0).any() or abs(weights.sum() - 1.0) > 1e-9:
            raise StrategyError(f"weights {weights!r} are not a distribution")
        shapes = {(len(s.outputs_a), len(s.outputs_b)) for _, s in parts}
        if len(shapes) != 1:
            raise StrategyError("mixture components disagree on input sizes")
        self._weights = weights
        self._components = [s for _, s in parts]

    @property
    def components(self) -> list[DeterministicStrategy]:
        """The deterministic strategies being mixed."""
        return list(self._components)

    def play(self, x, y, rng):
        idx = int(rng.choice(len(self._components), p=self._weights))
        return self._components[idx].play(x, y, rng)

    def behavior(self):
        out = self._weights[0] * self._components[0].behavior()
        for w, comp in zip(self._weights[1:], self._components[1:]):
            out = out + w * comp.behavior()
        return out


@dataclass(frozen=True)
class BinaryObservable:
    """A two-outcome measurement given as a Hermitian ``O`` with ``O^2 = I``.

    Outcome 0 corresponds to the +1 eigenspace, outcome 1 to the -1
    eigenspace (the XOR-game sign convention ``(-1)^a``).
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=np.complex128)
        require_hermitian(mat)
        if not np.allclose(mat @ mat, np.eye(mat.shape[0]), atol=1e-7):
            raise StrategyError("binary observable must square to identity")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        """Dimension the observable acts on."""
        return self.matrix.shape[0]

    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Projectors onto the +1 and -1 eigenspaces (outcomes 0 and 1)."""
        eye = np.eye(self.dim)
        return (eye + self.matrix) / 2.0, (eye - self.matrix) / 2.0

    @classmethod
    def from_basis(cls, basis: MeasurementBasis) -> "BinaryObservable":
        """Observable whose outcomes match a two-outcome basis."""
        if basis.num_outcomes != 2:
            raise StrategyError("basis must have exactly two outcomes")
        p0, p1 = basis.projectors()
        return cls(p0 - p1)


class QuantumStrategy(Strategy):
    """Shared entangled state + per-input binary observables per party.

    The state's first ``alice_qubits`` qubits belong to Alice; the rest to
    Bob. Measurements are given as :class:`BinaryObservable` (or
    :class:`MeasurementBasis` with two outcomes, which is converted).
    """

    def __init__(
        self,
        state: StateVector | DensityMatrix,
        alice: Sequence[BinaryObservable | MeasurementBasis],
        bob: Sequence[BinaryObservable | MeasurementBasis],
        *,
        alice_qubits: int | None = None,
    ) -> None:
        if isinstance(state, StateVector):
            state = state.to_density_matrix()
        self._state = state
        self._alice = [self._coerce(m) for m in alice]
        self._bob = [self._coerce(m) for m in bob]
        if not self._alice or not self._bob:
            raise StrategyError("both parties need at least one measurement")
        dims_a = {m.dim for m in self._alice}
        dims_b = {m.dim for m in self._bob}
        if len(dims_a) != 1 or len(dims_b) != 1:
            raise StrategyError("per-party observables must share a dimension")
        n_a = (dims_a.pop()).bit_length() - 1
        n_b = (dims_b.pop()).bit_length() - 1
        if alice_qubits is not None and alice_qubits != n_a:
            raise StrategyError(
                f"alice_qubits={alice_qubits} but observables act on {n_a}"
            )
        if n_a + n_b != state.num_qubits:
            raise StrategyError(
                f"state has {state.num_qubits} qubits but observables cover "
                f"{n_a}+{n_b}"
            )
        self._alice_qubits = n_a
        self._bob_qubits = n_b
        # Cache expanded projectors per input for play() and behavior().
        n = state.num_qubits
        self._proj_a = [
            tuple(
                expand_operator(p, list(range(n_a)), n)
                for p in obs.projectors()
            )
            for obs in self._alice
        ]
        self._proj_b = [
            tuple(
                expand_operator(p, list(range(n_a, n)), n)
                for p in obs.projectors()
            )
            for obs in self._bob
        ]

    @staticmethod
    def _coerce(
        measurement: BinaryObservable | MeasurementBasis,
    ) -> BinaryObservable:
        if isinstance(measurement, MeasurementBasis):
            return BinaryObservable.from_basis(measurement)
        if isinstance(measurement, BinaryObservable):
            return measurement
        raise StrategyError(
            f"unsupported measurement type {type(measurement).__name__}"
        )

    @property
    def state(self) -> DensityMatrix:
        """The shared state."""
        return self._state

    @property
    def num_inputs(self) -> tuple[int, int]:
        """Input alphabet sizes ``(nx, ny)``."""
        return len(self._alice), len(self._bob)

    def correlation(self, x: int, y: int) -> float:
        """``<A_x (x) B_y>`` under the shared state."""
        pa0, pa1 = self._proj_a[x]
        pb0, pb1 = self._proj_b[y]
        obs = (pa0 - pa1) @ (pb0 - pb1)
        return float(np.real(np.trace(self._state.matrix @ obs)))

    def joint_distribution(self, x: int, y: int) -> np.ndarray:
        """Exact ``p(a, b | x, y)`` as a 2x2 array."""
        out = np.zeros((2, 2))
        mat = self._state.matrix
        for a, pa in enumerate(self._proj_a[x]):
            for b, pb in enumerate(self._proj_b[y]):
                out[a, b] = float(np.real(np.trace(mat @ (pa @ pb))))
        out = out.clip(min=0.0)
        return out / out.sum()

    def behavior(self):
        nx, ny = self.num_inputs
        out = np.zeros((nx, ny, 2, 2))
        for x in range(nx):
            for y in range(ny):
                out[x, y] = self.joint_distribution(x, y)
        return out

    def play(self, x, y, rng):
        if not 0 <= x < len(self._alice) or not 0 <= y < len(self._bob):
            raise StrategyError(f"inputs ({x},{y}) outside strategy tables")
        a, post = measure_with_projectors(self._state, self._proj_a[x], rng)
        b, _ = measure_with_projectors(post, self._proj_b[y], rng)
        return a, b
