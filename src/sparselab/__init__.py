"""Desk-scale laboratory for batch-size scaling and sparsity effects on
neural network training: measures steps-to-result over budgeted
quasi-random metaparameter searches, fits the K = c1/B + c2 law, and
estimates the smoothness/variance constants behind it."""

from .analysis import (ScalingFit, SmoothnessTrace, TheoryParams,
                       estimate_beta, estimate_delta, estimate_lipschitz,
                       fit_scaling, predict_steps, ratio_report,
                       trace_smoothness)
from .data import Dataset, load_idx, split_validation, synth_dataset
from .harness import (StudyConfig, StudyPoint, StudyTable, TrialRecord,
                      Workload, run_study, run_trial)
from .models import Model, ModelSpec, build_model
from .optim import OptimizerConfig, OptimizerState, ScheduleSpec, schedule_eta, step
from .prune import Mask, apply_mask, connection_sensitivity, topk_mask
from .quasirand import SearchSpace, map_to_space, sobol_points

__version__ = "0.1.0"
