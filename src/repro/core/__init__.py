"""The paper's primary contribution: the in-SRAM approximate multiplier.

Scalar reference models, vectorised kernels, lookup-table fast paths, the
floating point pipeline wrapped around the mantissa multiplier, and the
GEMM backends used by the DNN stack.
"""

from .config import (
    FLA,
    PC2,
    PC2_TR,
    PC3,
    PC3_TR,
    PC4,
    PC4_TR,
    MultiplierConfig,
    Scheme,
    all_configs,
    extended_configs,
    table1_rows,
)
from .error_bounds import truncation_extra_error, worst_case_relative_error
from .errors import ErrorStats, fp_error_stats, mantissa_error_stats
from .fp_mul import approx_fp_multiply, exact_fp_multiply, significand_product
from .gemm import ApproxMatmul, ExactMatmul, MatmulBackend, QuantizedMatmul, approx_matmul
from .kernels import (
    GemmKernel,
    UnknownKernelError,
    exact_tier_name,
    get_kernel,
    kernel_names,
    kernel_tiers,
    register_kernel,
    select_kernel,
    shape_class,
    table_cache_counters,
)
from .native import native_active, native_status
from .router import (
    TierCertificate,
    TierDecision,
    certify_fast_path,
    route_decision,
    route_kernel,
)
from .related_work import (
    compressed_pp_multiply,
    compressed_pp_multiply_array,
    lower_part_or_multiply,
    lower_part_or_multiply_array,
)
from .mantissa import (
    approx_multiply,
    approx_multiply_truncated,
    exact_multiply,
    or_multiply,
)
from .tables import product_table, tabulated_multiply
from .vectorized import approx_multiply_array, exact_multiply_array, or_multiply_array

__all__ = [
    "FLA",
    "PC2",
    "PC3",
    "PC2_TR",
    "PC3_TR",
    "PC4",
    "PC4_TR",
    "MultiplierConfig",
    "Scheme",
    "all_configs",
    "extended_configs",
    "table1_rows",
    "truncation_extra_error",
    "worst_case_relative_error",
    "ErrorStats",
    "fp_error_stats",
    "mantissa_error_stats",
    "approx_fp_multiply",
    "exact_fp_multiply",
    "significand_product",
    "ApproxMatmul",
    "ExactMatmul",
    "MatmulBackend",
    "QuantizedMatmul",
    "approx_matmul",
    "GemmKernel",
    "UnknownKernelError",
    "exact_tier_name",
    "get_kernel",
    "kernel_names",
    "kernel_tiers",
    "register_kernel",
    "select_kernel",
    "shape_class",
    "table_cache_counters",
    "native_active",
    "native_status",
    "TierCertificate",
    "TierDecision",
    "certify_fast_path",
    "route_decision",
    "route_kernel",
    "approx_multiply",
    "approx_multiply_truncated",
    "exact_multiply",
    "or_multiply",
    "compressed_pp_multiply",
    "compressed_pp_multiply_array",
    "lower_part_or_multiply",
    "lower_part_or_multiply_array",
    "product_table",
    "tabulated_multiply",
    "approx_multiply_array",
    "exact_multiply_array",
    "or_multiply_array",
]
