"""Packed-ensemble MLPs for pointwise regression of 2-D flow fields.

Library plus CLI covering the full pipeline: synthetic dataset generation,
standardization, mini-batch Adam training with early stopping, k-fold
cross-validation over hyperparameter grids, physics-based evaluation
(pressure-force drag/lift, Spearman rank correlations), and cost
benchmarking of packed variants against their deep-ensemble equivalent.
"""

from .bench import BenchCase, BenchReport, machine_descriptor, run_benchmark, time_training
from .data import (
    CylinderFlowConfig,
    Dataset,
    ScalerPair,
    Simulation,
    SimulationParseError,
    apply_scaler,
    bernoulli_pressure,
    cylinder_velocity,
    fit_scaler,
    generate_cylinder_flow,
    kfold_split,
    load_dataset,
    load_simulation,
    subsample,
    write_dataset,
    write_simulation,
)
from .metrics import (
    EvalReport,
    ForceCoefficients,
    SurfacePolyline,
    evaluate,
    evaluate_predictions,
    force_coefficients,
    mean_relative_error,
    order_surface,
    predict_simulation,
    spearman,
)
from .packed_net import (
    LayerPlan,
    PackedSpec,
    Params,
    PerEstimatorOutput,
    ShapeMismatchError,
    forward,
    init_params,
    load_params,
    loss_and_grad,
    param_count,
    plan_layers,
    save_params,
)
from .training import (
    AdamState,
    CVRow,
    GridRow,
    TrainConfig,
    TrainHistory,
    TrainingDivergedError,
    adam_step,
    cross_validate,
    early_stop,
    init_adam_state,
    scaled_mse,
    train,
)

__version__ = "0.1.0"
