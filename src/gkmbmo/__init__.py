"""Learning parameterized non-expansive fixed-point operators.

The package implements a generalized averaged fixed-point scheme with
learnable operator parameters, a bilevel trainer that differentiates
through the unrolled inner iteration, and a diagnostics suite that
empirically certifies the convergence properties the construction is
designed around.
"""

from .bmo import (BmoConfig, TrainReport, Trajectory, envelope_shape,
                  residual_envelope_check, stationarity_probe, train)
from .errors import (CapabilityError, ContractError, DivergenceError, FormatError,
                     NumericsError)
from .hypergrad import (LossDescriptor, Tape, evaluate_phiK, fd_hypergradient,
                        hypergradient, inner_loop, km_iterate)
from .metric import (MetricMatrix, h_inner, h_norm, h_project, min_eigen_estimate,
                     spectral_norm_estimate)
from .operators import (AlmOperator, CompositeOperator, DladmmOperator,
                        HyperParams, NetOperator, OmegaBox, ParamSlice, PgOperator,
                        apply_T, make_hyperparams, normalize_net, soft_threshold)

__all__ = [
    "AlmOperator", "BmoConfig", "CapabilityError", "CompositeOperator",
    "ContractError", "DivergenceError", "DladmmOperator",
    "FormatError", "HyperParams", "LossDescriptor", "MetricMatrix",
    "NetOperator", "NumericsError", "OmegaBox", "ParamSlice", "PgOperator",
    "Tape", "TrainReport", "Trajectory", "apply_T", "envelope_shape",
    "evaluate_phiK", "fd_hypergradient", "h_inner", "h_norm", "h_project",
    "hypergradient", "inner_loop", "km_iterate", "make_hyperparams",
    "min_eigen_estimate", "normalize_net", "residual_envelope_check",
    "soft_threshold", "spectral_norm_estimate", "stationarity_probe", "train",
]

__version__ = "0.1.0"
