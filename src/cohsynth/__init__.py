"""Conditional synthesis of quantum coherence from weakly excited TLS.

Dense simulation of ground-state-eliminating projective protocols (pairwise
chain and global), energy/coherence/mutual-coherence accounting, local
dephasing channels, and the matching closed-form and small-p results.
"""

from .closedform import (
    ApproximationBand,
    GlobalApprox,
    OptimalComparison,
    approx_dc,
    approx_dcm,
    approx_de,
    approx_ps,
    cf_exact,
    count_no_adjacent_ground,
    ef_exact,
    global_approx,
    optimal_comparison,
    ps_exact,
)
from .dephasing import DephasingSpec, dephase_local, kraus_oracle
from .errors import (
    CohsynthError,
    InvalidStateError,
    ProtocolImpossibleError,
    SystemSizeError,
)
from .measures import (
    GainReport,
    average_energy,
    gain_report,
    local_coherence,
    mutual_coherence,
    rel_entropy_coherence,
)
from .protocol import (
    MeasurementPlan,
    ProtocolOutcome,
    apply_protocol,
    run_experiment,
    rus_failure_probability,
    success_mask,
)
from .states import (
    QuantumState,
    SystemSpec,
    TlsParams,
    hamiltonian_diagonal,
    initial_coherence,
    initial_energy,
    mixed_product_state,
    pure_product_state,
    uniform_params,
)

__version__ = "0.1.0"

__all__ = [
    "ApproximationBand",
    "CohsynthError",
    "DephasingSpec",
    "GainReport",
    "GlobalApprox",
    "InvalidStateError",
    "MeasurementPlan",
    "OptimalComparison",
    "ProtocolImpossibleError",
    "ProtocolOutcome",
    "QuantumState",
    "SystemSizeError",
    "SystemSpec",
    "TlsParams",
    "approx_dc",
    "approx_dcm",
    "approx_de",
    "approx_ps",
    "apply_protocol",
    "average_energy",
    "cf_exact",
    "count_no_adjacent_ground",
    "dephase_local",
    "ef_exact",
    "gain_report",
    "global_approx",
    "hamiltonian_diagonal",
    "initial_coherence",
    "initial_energy",
    "kraus_oracle",
    "local_coherence",
    "mixed_product_state",
    "mutual_coherence",
    "optimal_comparison",
    "ps_exact",
    "pure_product_state",
    "rel_entropy_coherence",
    "run_experiment",
    "rus_failure_probability",
    "success_mask",
    "uniform_params",
]
