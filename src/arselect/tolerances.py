"""Numerical policy shared across the package.

These constants are deliberate design choices rather than tuning knobs:
changing them changes which models are accepted, which derived
coefficients count as zero, and how ties are resolved.
"""

#: A derived coefficient with absolute value at or below this is treated as
#: zero (e.g. when reading off the order of an h-step projection).
TOL_ZERO = 1e-10

#: A coefficient vector is accepted as stationary only if each of its
#: reflection coefficients (the Schur-Cohn test) is below 1 minus this
#: margin in magnitude.
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

#: Largest ``p + h - 1`` for which the theory constants are formed: their
#: nested pass takes (p + h - 1)-square matrices and h companion steps of
#: them, so its time grows as about h**3.  ``loss_table((0.9, -0.81), 255,
#: 4)`` takes 0.07 s on one 2-core Xeon with one BLAS thread; at h = 511,
#: 0.8 s.
HORIZON_ROWS_CAP = 256

#: Largest lag window for which the theory constants are formed: its
#: autocovariance matrix takes one condition number (an SVD) and its
#: Toeplitz index a window-square array.  ``loss_table((0.9, -0.81), 3,
#: K)`` takes 0.02 s at K = 400, 0.43 s at 1024 and 3.4 s at 2000 (125 MB)
#: on the same machine.
THEORY_WINDOW_CAP = 1024

#: Steps drawn and discarded by default after a simulated path's stationary
#: start; none are needed, since the start already has the stationary law.
DEFAULT_BURN_IN = 0
