"""Concurrence and its channel-evolution bounds for bipartite quantum states.

The library computes pure-state concurrence, the exact two-qubit
spin-flip concurrence, fidelity-based lower bounds valid in any
dimension, determinant-normalized upper bounds, and -- its centerpiece --
the reconstruction of the evolved state's lower bound from the channel
image of a single full-rank probe state.
"""

__version__ = "0.1.0"

from .channels import (
    ChannelApplication,
    KrausChannel,
    amplitude_damping,
    apply_one_sided,
    apply_two_sided,
    depolarizing,
    phase_damping,
)
from .concurrence import (
    BoundValue,
    concurrence_pure,
    concurrence_two_qubit_pure,
    fef_two_qubit,
    fidelity_lower_bound,
    max_mes_fidelity,
    spin_flip_spectrum,
    theorem1_bound,
    upper_bound_one_sided,
    upper_bound_two_sided,
    wootters_concurrence,
)
from .errors import (
    DimensionMismatch,
    InvalidChannel,
    InvalidRank,
    NotNormalized,
    OutOfRange,
    SingularProbe,
    TrivialDimension,
    ZeroProbability,
)
from .probe import (
    MesBasis,
    ProbeState,
    canonical_probe,
    lower_bound_one_sided,
    lower_bound_two_sided,
    mes_basis,
    probe_from_matrix,
    pt_via_mes_sum,
    pt_via_reduced,
)
from .qlinalg import (
    DensityMatrix,
    PureState,
    SchmidtForm,
    canonical_mes,
    partial_trace,
    random_density,
    random_pure_state,
    schmidt_decompose,
    state_to_matrix,
    swap_operator,
)

__all__ = [
    "BoundValue",
    "ChannelApplication",
    "DensityMatrix",
    "DimensionMismatch",
    "InvalidChannel",
    "InvalidRank",
    "KrausChannel",
    "MesBasis",
    "NotNormalized",
    "OutOfRange",
    "ProbeState",
    "PureState",
    "SchmidtForm",
    "SingularProbe",
    "TrivialDimension",
    "ZeroProbability",
    "amplitude_damping",
    "apply_one_sided",
    "apply_two_sided",
    "canonical_mes",
    "canonical_probe",
    "concurrence_pure",
    "concurrence_two_qubit_pure",
    "depolarizing",
    "fef_two_qubit",
    "fidelity_lower_bound",
    "lower_bound_one_sided",
    "lower_bound_two_sided",
    "max_mes_fidelity",
    "mes_basis",
    "partial_trace",
    "phase_damping",
    "probe_from_matrix",
    "pt_via_mes_sum",
    "pt_via_reduced",
    "random_density",
    "random_pure_state",
    "schmidt_decompose",
    "spin_flip_spectrum",
    "state_to_matrix",
    "swap_operator",
    "theorem1_bound",
    "upper_bound_one_sided",
    "upper_bound_two_sided",
    "wootters_concurrence",
]
