"""SAT-based fault-resistance verification of gate-level circuits.

Decides whether a circuit hardened with a detection or correction
countermeasure resists a parameterized fault adversary, and produces a
replay-confirmed counterexample (fault vector + input trace) when it does
not.
"""

from .circuit_model import (
    FaultResistanceModel,
    FaultType,
    GateInstance,
    GateKind,
    SequentialCircuit,
    UnrolledCircuit,
    build_and_validate,
    fault_locations,
    unroll,
)
from .netlist_io import (
    NetlistDoc,
    VerificationConfig,
    parse_config,
    parse_netlist,
    write_netlist,
)
from .sat_encoding import Counterexample, Verdict, verify
from .simulator import (
    FaultEvent,
    FaultVector,
    apply_fault_vector,
    check_effectiveness,
    find_witness,
    run_trace,
)

__version__ = "0.1.0"

__all__ = [
    "FaultEvent", "FaultResistanceModel", "FaultType", "FaultVector",
    "GateInstance", "GateKind", "NetlistDoc", "SequentialCircuit",
    "UnrolledCircuit", "VerificationConfig", "Counterexample", "Verdict",
    "apply_fault_vector", "build_and_validate", "check_effectiveness",
    "fault_locations", "find_witness", "parse_config", "parse_netlist",
    "run_trace", "unroll", "verify", "write_netlist", "__version__",
]
