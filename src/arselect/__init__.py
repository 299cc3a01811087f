"""Order-and-method selection for multistep autoregressive forecasting.

The package answers one question: given a stationary series and a
forecasting horizon, which lag window (or lag subset) should be fitted,
and should the h-step forecast iterate a one-step fit or regress h steps
ahead directly?  It provides the exact population answer (loss tables
from the model), the data-driven answer (accumulated-prediction-error
selection), and simulation tools to compare the two.

Importing the package loads numpy only.  SciPy's ``lfilter`` filters
simulated paths, and is imported on first use inside the one function of
:mod:`arselect.montecarlo` that calls it, so theory, selection and BIC
never load SciPy.
"""

from .ape import ApeResult, ape_direct, ape_excess, ape_plugin, start_index
from .errors import (
    ArSelectError,
    DegenerateHorizonError,
    InsufficientLagsError,
    LengthMismatchError,
    NonPositiveVarianceError,
    NonStationaryError,
    NoValidStartError,
    NumericalError,
    OutOfDomainError,
    SeriesOverflowError,
    SingularGammaError,
    SingularMomentError,
    SubsetTooLargeError,
    TooFewObservationsError,
    UnderspecifiedOrderError,
    ValidationError,
    ZeroLeadCoefficientError,
)
from .estimation import (
    Series,
    fit_direct,
    fit_one_step,
    fit_plugin,
    forecast,
    masked_fit_direct,
    masked_fit_plugin,
    predict_with,
)
from .methods import Method
from .montecarlo import (
    BENCHMARK_MODELS,
    FrequencyResult,
    MspeEstimate,
    REFERENCE_RATIOS,
    SimPath,
    ThreeStepRatio,
    check_ratios,
    mc_mspe,
    replicate_table1,
    selection_frequency,
    simulate,
)
from .selection import (
    SelectionAudit,
    SelectionResult,
    bic_order,
    bic_values,
    select_predictor,
    subset_select,
)
from .theory import (
    ArModel,
    AutocovarianceTable,
    DriftResult,
    LossTable,
    MaCoefficients,
    autocovariances,
    companion_matrix,
    direct_excess_constant,
    h_step_order,
    horizon_variance,
    iterate_plugin_coeffs,
    loss_table,
    ma_coefficients,
    optimal_candidates,
    optimal_direct_coeffs,
    plugin_excess_constant,
    required_masks,
    subset_loss_table,
    three_step_excess_ratio,
    underfit_ape_drift,
)

__version__ = "0.1.0"
