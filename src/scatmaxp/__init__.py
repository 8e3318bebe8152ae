"""Windowed scattering transform with continuous max-pooling on plates."""

from .filterbank import (
    BankSpec,
    FilterBank,
    FilterIndex,
    MorletParams,
    build_morlet_bank,
    build_partition_bank,
    frame_defect,
    littlewood_paley_sum,
    theorem_constant_B,
)
from .grid import (
    Plate,
    SignalGrid,
    convolve,
    l2_diff_on_common_torus,
    l2_norm,
    linf_norm,
    read_pgm,
    read_sgrid,
    translate_in_plate,
    translate_with_plate,
    unit_plate,
    write_sgrid,
)
from .pooling import (
    AdmissibilityError,
    AdmissibilityWarning,
    max_pool,
    min_admissible_factor,
)
from .scattering import (
    PoolConfig,
    ScatteringTree,
    compute_tree,
    count_paths,
    dense_head_parameters,
    enumerate_paths,
    feature_summary,
    propagate_one,
    strided_block_max,
    subsample_signal,
    window,
)
from .verify import (
    VerificationReport,
    VerifyConfig,
    check_commutation,
    check_contraction,
    check_energy_monotonic,
    check_invariance_decay,
    check_shift_equivariance_plain,
    default_suites,
    random_signal,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
