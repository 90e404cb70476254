"""Coded parallel-computing shuffle for half-duplex wireless MapReduce.

Construction and byte-exact verification of the XOR shuffle scheme,
interference-neutralizing delivery simulation, exact delivery-time
analytics for the competing schemes, the converse bound, and the
(K_r, t) optimizer.
"""

from .model import (
    ConstraintViolation,
    InfeasibleInstance,
    InternalInvariantError,
    NodeSet,
    ParameterError,
    Partition,
    ShuffleConfig,
    SystemParams,
    check_config,
    config_violation,
    enum_partitions,
    enum_subsets,
    full_set,
    partition_index,
    validate_config,
)
from .placement import (
    IVStore,
    PlacementMap,
    build_placement,
    map_phase,
    required_iv_count,
    required_ivs,
)
from .codec import (
    CodedMessage,
    Segment,
    SegmentId,
    SegmentTable,
    StragglerPlan,
    block_ivs,
    coding_complexity,
    decode_blocks,
    decode_segment,
    encode_partition,
    per_partition_load,
    round_up_bits,
    segment_ivs,
    segments_per_block,
    straggler_replan,
    straggler_schedule,
    xor_bytes,
)
from .channel import (
    ChannelConditionError,
    ChannelRealization,
    DeliveryReport,
    VerificationReport,
    build_precoders,
    draw_channel,
    end_to_end_verify,
    ideal_verify,
    neutralizing_precoder,
    partition_slots,
    simulate_partition,
    simulate_with_resample,
    simulation_bits,
)
from .ndt import (
    BW_FD,
    BW_HD,
    CDC,
    CPC,
    LOWER_BOUND,
    OSL_FD,
    OSL_HD,
    SCHEMES,
    UNCODED_TDMA,
    LowerBoundModel,
    NdtPoint,
    asymptotics_check,
    cpc_minimum,
    cpc_t1_minimum,
    fd_crossover_holds,
    gap_ratio,
    lower_bound,
    ndt_bw_fd,
    ndt_bw_hd,
    ndt_cdc,
    ndt_cpc,
    ndt_cpc_fractional,
    ndt_osl_fd,
    ndt_osl_hd,
    ndt_uncoded,
    scheme_point,
)
from .optimize import (
    CrossValidationError,
    OptimumParams,
    brute_force_min,
    closed_form_min,
    cross_validate,
    t1_optimal_regime,
)

__version__ = "0.1.0"
