"""Quantum-correlated load balancing — the paper's core contribution.

Assignment policies (classical baselines and CHSH/XOR quantum pairs), the
Fig 4 timestep harness, load sweeps, and a continuous-time DES adapter
that measures genuine simulated qubits per decision.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "degradation": (
        "BernoulliPairFaults",
        "DegradationReport",
        "DegradedPolicy",
        "OutagePairFaults",
        "PairFaultModel",
        "make_degraded_chsh",
    ),
    "oracle": ("OmniscientAssignment",),
    "weighted": ("WeightedCHSHPairedAssignment",),
    "des_adapter": (
        "DESResult",
        "QuantumPairDecider",
        "coordinated_submit",
        "run_des_experiment",
    ),
    "regime": (
        "VERDICT_COORDINATION",
        "VERDICT_QUANTUM",
        "VERDICT_SHARED",
        "RegimeCell",
        "RegimeMapResult",
        "regime_map",
        "regime_map_detailed",
    ),
    "policies": (
        "AssignmentPolicy",
        "CHSHPairedAssignment",
        "ClassicalGroupAssignment",
        "ClassicalPairedAssignment",
        "DedicatedPoolAssignment",
        "GHZGroupAssignment",
        "GroupAssignment",
        "MultiClassPairedAssignment",
        "PowerOfTwoAssignment",
        "RandomAssignment",
        "RoundRobinAssignment",
        "SameTypePairedAssignment",
        "WGroupAssignment",
    ),
    "simulation": (
        "SERVICE_DISCIPLINES",
        "SIMULATION_ENGINES",
        "SimulationResult",
        "run_timestep_simulation",
    ),
    "engine": ("vectorization_unsupported_reason",),
    "sweep": (
        "LoadSweepPoint",
        "knee_load",
        "sweep_load",
        "sweep_load_detailed",
    ),
    "xor_lb": ("ClassicalGraphPairedAssignment", "XORPairedAssignment"),
})
