"""Coset codes, rate regions, and decoding measurements for 3-to-1
classical-quantum interference channels."""

from .channels import (
    CqChannel,
    CqState,
    InputDistribution,
    SplitInputDistribution,
    binary_input_distribution,
    binary_split_distribution,
    classical_conditional_entropy,
    classical_quantum_mi,
    cq_entropy,
    cq_mutual_information,
    example1_channel,
    example2_channel,
    example2_mix,
    is_3to1,
    label_entropy,
    sigma1,
    sigma2,
    split_sigma1,
    split_sigma_receiver,
)
from .classical_sim import (
    ClassicalIcInstance,
    SimReport,
    capacity_report,
    simulate,
    simulate_independent,
    wilson_interval,
)
from .errors import (
    BudgetExceededError,
    ConsistencyError,
    ModelViolationError,
    SpecFileError,
)
from .field_codes import (
    EncoderState,
    NestedCosetCode,
    PrimeField,
    coset_sum,
    field_vectors,
    select_typical,
)
from .linalg import (
    DensityOperator,
    eig_hermitian,
    partial_trace,
    random_density,
    tensor,
    trace_distance,
    trace_norm,
    von_neumann_entropy,
)
from .povm import (
    PinchingRow,
    Povm,
    Rx1Setup,
    TypicalProjector,
    build_ptp_povm,
    build_rx1_povm,
    conditional_typical_projector,
    gentle_measurement_check,
    ptp_block_error,
    rx1_setup_from_channel,
    rx1_success_probability,
    typical_projector,
    verify_pinching,
)
from .regions import (
    Constraint,
    GridSearchResult,
    NccRateParams,
    RatePoint,
    RegionSpec,
    SeparationReport,
    Theorem2Bounds,
    conv,
    example_separation_witness,
    grid_search,
    hb,
    shannon,
    simplex_grid,
    theorem1_region,
    theorem2_bounds,
    theorem3_region,
    usb_region,
)
from .specfile import (
    parse_channel,
    parse_channel_file,
    serialize_channel,
    write_channel_file,
)
from .typicality import is_relative_typical, letter_counts, pair_sequence

__version__ = "0.1.0"
