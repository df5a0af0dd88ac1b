"""Packed-ensemble MLPs for pointwise regression of 2-D flow fields.

Library plus CLI covering the full pipeline: synthetic dataset generation,
standardization, mini-batch Adam training with early stopping, k-fold
cross-validation over hyperparameter grids, physics-based evaluation
(pressure-force drag/lift, Spearman rank correlations), and cost
benchmarking of packed variants against their deep-ensemble equivalent.
"""

__version__ = "0.1.0"
