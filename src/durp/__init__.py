"""Distance metric learning with dual random projections.

Learn a Mahalanobis metric from relative comparisons by solving the
margin problem's dual in a low-dimensional random subspace and rebuilding
the full-dimensional metric from the dual variables, with one final PSD
projection.  Includes random-subspace and PCA-subspace baselines, a
projected-gradient oracle solver with momentum, evaluation protocols,
and harnesses that check the method's recovery guarantees empirically.  The package root
exports nothing: import names from their modules (``durp.data``, ...).
"""
