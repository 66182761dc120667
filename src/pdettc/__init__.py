"""Reward-guided test-time computing for PDE surrogate models.

Pipeline: generate compressible-Euler trajectories with a conservative
finite-volume solver, train a stochastic one-step transformer surrogate,
then improve autoregressive rollouts by sampling B candidate next
snapshots per step and keeping the one a reward model scores highest.
"""

from .euler import (GridSpec, Snapshot, ICSpec, Trajectory, Dataset,
                    Normalization, make_initial_condition, sample_ic, fv_step,
                    solve_trajectory, generate_dataset, conservation_drift,
                    totals, SolverError, InvalidInitialCondition)
from .metrics import aggregate_gain, conservation_trace, evaluate, mse, sample_gain
from .rewards import (EnergyReward, MassReward, MomentumReward, OracleMseReward,
                      PRMConfig, ProcessRewardModel, Triplets,
                      build_prm_triplets, ranking_accuracy, train_prm)
from .rng import RngStream, mix64
from .storage import load_checkpoint, load_dataset, save_dataset
from .surrogate import (DESK_MODEL, PAPER_MODEL, Surrogate, TrainConfig,
                        TrainResult, finetune, train)
from .ttc import (RolloutRecord, TTCConfig, greedy_rollout, make_reward_model,
                  rollout_sweep, select)
from .vit import (MODE_DETERMINISTIC, MODE_STOCHASTIC, MODE_TRAIN, ModelConfig,
                  VisionTransformer)

__version__ = "0.1.0"
