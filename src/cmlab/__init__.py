"""Configurable-precision laboratory for the remainders of the Stirling
series of ln Gamma, their exponential-kernel integral representations, and
numerical estimation of complete-monotonicity degrees.

Everything computes under an explicit :class:`PrecisionContext`; nothing
reads global precision state.  The public surface re-exported here is the
supported API; underscored module members are not.
"""

from .cmdegree import (
    DEFAULT_GRID,
    CMCheckResult,
    DegreeBracket,
    FunctionFamily,
    builtin_families,
    cm_check,
    conjecture_probe,
    degree_estimate,
    first_deriv_bound,
)
from .combinatorics import bernoulli, stirling2, zeta_even
from .errors import BracketError, DomainError, IntegrationError
from .gammakit import GammaEval, ln_gamma, polygamma
from .kernels import (
    Remark1Chain,
    SignReport,
    K_kernel,
    bose_derivative,
    f_kernel,
    remark1_chain,
    sign_scan,
)
from .precision import GridSpec, PrecisionContext
from .quadrature import (
    DEFAULT_BUDGET,
    IntegralResult,
    bose_moment,
    cos_kernel_integral,
    laplace,
    sin_kernel_integral,
)
from .remainders import (
    TailLimitEntry,
    TailLimits,
    remainder,
    remainder_d1,
    remainder_d2,
    remainder_deriv,
    remainder_jet,
    tail_limits,
)
from .verify import (
    Remark3Report,
    binet_check,
    psi_integral_check,
    remark3_inequalities,
    verify_degree_representation,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # precision
    "PrecisionContext",
    "GridSpec",
    # errors
    "DomainError",
    "IntegrationError",
    "BracketError",
    # combinatorics
    "bernoulli",
    "stirling2",
    "zeta_even",
    # gamma machinery
    "GammaEval",
    "ln_gamma",
    "polygamma",
    # kernels
    "f_kernel",
    "bose_derivative",
    "K_kernel",
    "Remark1Chain",
    "remark1_chain",
    "SignReport",
    "sign_scan",
    # quadrature
    "IntegralResult",
    "laplace",
    "bose_moment",
    "cos_kernel_integral",
    "sin_kernel_integral",
    "DEFAULT_BUDGET",
    # remainders
    "remainder",
    "remainder_d1",
    "remainder_d2",
    "remainder_deriv",
    "remainder_jet",
    "TailLimitEntry",
    "TailLimits",
    "tail_limits",
    # degree estimation
    "FunctionFamily",
    "CMCheckResult",
    "DegreeBracket",
    "DEFAULT_GRID",
    "builtin_families",
    "cm_check",
    "first_deriv_bound",
    "degree_estimate",
    "conjecture_probe",
    # identity checks
    "binet_check",
    "psi_integral_check",
    "verify_degree_representation",
    "Remark3Report",
    "remark3_inequalities",
]
