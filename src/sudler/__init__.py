"""Sudler products, Ostrowski numeration, cotangent sums, and their verification."""

__version__ = "0.1.0"

from .cf import AlphaSpec, ConvergentTable, build_table, parse_alpha
from .cotangent import digamma, v_k, v_k_main_term, v_k_star, vasyunin
from .errors import (
    BudgetError,
    InvalidDigitsError,
    ParseError,
    PoleError,
    RangeError,
    RationalDepthError,
    SudlerError,
    ZeroFactorError,
)
from .limitfn import LimitConstants, empirical_limit, g_alpha, g_alpha_r, limit_constants
from .ostrowski import (
    OstrowskiDigits,
    decode,
    delta_T_default,
    encode,
    epsilon_profile,
    n_star,
    project,
)
from .products import (
    Decomposition,
    LogProduct,
    ScanResult,
    decompose,
    decompose_all,
    log_sudler,
    log_sudler_rational,
    log_sudler_shifted,
    reflection_rhs,
    scan,
)
from .theorems import (
    DkTerm,
    PredictionReport,
    bernoulli_b2_integrals,
    d_k_terms,
    lcnorm_prediction,
    log_sin_integral,
    pnstar_prediction,
    theorem1_check,
    u_n_log,
    vol41,
)
