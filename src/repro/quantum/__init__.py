"""Exact simulation of small quantum systems.

This subpackage is the repo's substitute for physical quantum hardware
(see DESIGN.md §2). It provides state vectors, density matrices, gates,
arbitrary-basis projective measurement, entangled state constructors, and
Kraus noise channels — everything the paper's protocols consume.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "bases": (
        "MeasurementBasis",
        "bloch_basis",
        "chsh_alice_basis",
        "chsh_bob_basis",
        "computational_basis",
        "hadamard_basis",
        "observable_for_basis",
        "rotation_basis",
    ),
    "channels": (
        "Channel",
        "HeraldedErasure",
        "amplitude_damping",
        "bit_flip",
        "bit_phase_flip",
        "compose",
        "dephasing",
        "depolarizing",
        "erasure_as_depolarizing",
        "identity_channel",
        "phase_flip",
    ),
    "entangle": (
        "bell_pair",
        "bell_state",
        "ghz_state",
        "isotropic_state",
        "w_state",
        "werner_state",
    ),
    "measurement": (
        "EntangledRegister",
        "MeasurementOutcome",
        "Qubit",
        "measure_density_matrix",
        "measure_qubit",
        "measure_state_vector",
        "outcome_probabilities",
        "povm_measure",
    ),
    "random_states": (
        "random_density_matrix",
        "random_pure_density",
        "random_state_vector",
        "random_unitary",
    ),
    "state": ("DensityMatrix", "StateVector"),
    "bloch": (
        "basis_direction",
        "basis_from_direction",
        "bloch_to_state",
        "purity_from_bloch",
        "state_to_bloch",
    ),
    "circuit": ("Circuit", "Operation"),
    "tomography": (
        "linear_inversion",
        "pauli_expectations",
        "pauli_labels",
        "project_to_density_matrix",
        "sampled_pauli_expectations",
        "tomography",
    ),
})
