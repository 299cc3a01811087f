"""Numerical policy shared across the package.

These constants are deliberate design choices rather than tuning knobs:
changing them changes which models are accepted, which derived
coefficients count as zero, and how ties are resolved.
"""

#: A derived coefficient with absolute value at or below this is treated as
#: zero (e.g. when reading off the order of an h-step projection).
TOL_ZERO = 1e-10

#: A coefficient vector is accepted as stationary only if the spectral
#: radius of its companion matrix is below 1 minus this margin.
STATIONARITY_MARGIN = 1e-9

#: Maximum relative residual tolerated on a normal-equation solve.
TOL_LIN = 1e-10

#: Relative window within which two losses count as tied.
TOL_TIE = 1e-9

#: Condition-number ceiling beyond which a moment or autocovariance matrix
#: is treated as numerically singular.  Least-squares fits apply it as the
#: floor ``1 / COND_GUARD`` on a relative Cholesky pivot.
COND_GUARD = 1e12

#: Largest lag window allowed for exhaustive subset enumeration
#: (2**cap - 1 candidate masks).
SUBSET_ORDER_CAP = 12

#: Steps drawn and discarded by default after a simulated path's stationary
#: start; none are needed, since the start already has the stationary law.
DEFAULT_BURN_IN = 0
