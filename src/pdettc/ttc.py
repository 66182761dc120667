"""Greedy best-of-B autoregressive rollouts under a pluggable reward.

Each step draws B stochastic candidate next snapshots, scores them with
the reward model's ``score(cur, cands)`` (see `pdettc.rewards`), and
feeds the candidate that `select` picks forward.  Candidate RNG streams
depend only on (rollout seed, timestep, candidate index), so the B=1
candidate is the first candidate of every larger-B run and sweeps over B
are paired by construction.

A non-physical candidate (non-finite fields, rho <= 0 or p <= 0) is not
passed to the reward; its score is undefined, as is a NaN or infinite
score the reward returns.  `select` picks the lowest-index maximum of the
defined scores; a step with none falls back to candidate 0 and is listed
in ``fallback_steps``.  A rollout never continues from a non-physical
state: when the kept candidate is non-physical (a fallback step, where
no candidate was defined), the step's chosen state is the current state
with its time advanced by the surrogate's ``dt_out``, and the next step
starts from it.  Records store an undefined score as None.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .euler import GAMMA_DEFAULT, Normalization, Snapshot, SolverError, Trajectory
from .rewards import (EnergyReward, MassReward, MomentumReward,
                      OracleMseReward, ProcessRewardModel)
from .rng import mix64
from .storage import (StorageError, read_container, read_json, write_container,
                      write_text)
from .surrogate import Surrogate

# Builders of the reward models by name; each takes the keywords of
# `make_reward_model`.
_REWARD_MODELS = {
    "arm_mass": lambda **_: MassReward(),
    "arm_momentum_x": lambda **_: MomentumReward("x"),
    "arm_momentum_y": lambda **_: MomentumReward("y"),
    "arm_energy": lambda gamma, **_: EnergyReward(gamma),
    "prm": lambda prm, **_: prm,
    "oracle_mse": lambda truth, norm, **_: OracleMseReward(truth, norm),
}
REWARD_NAMES = tuple(_REWARD_MODELS)


@dataclass(frozen=True)
class TTCConfig:
    n_branch: int = 1                 # branching factor B
    reward: str = "arm_mass"
    seed: int = 0
    n_steps: int = 20                 # rollout steps T
    teacher_forced: bool = False      # feed ground truth back instead of the pick

    def __post_init__(self):
        if self.n_branch < 1:
            raise ValueError("branching factor must be >= 1")
        if self.n_steps < 1:
            raise ValueError("need at least one rollout step")
        if self.reward not in REWARD_NAMES:
            raise ValueError(f"unknown reward {self.reward!r}")


def select(scores) -> tuple[int, bool]:
    """(index, fell_back) of the candidate a step keeps.

    The index is the lowest one attaining the maximum of the finite
    scores; with no finite score it is (0, True).
    """
    s = np.asarray(scores, dtype=np.float64)
    finite = np.isfinite(s)
    if not finite.any():
        return 0, True
    return int(np.argmax(np.where(finite, s, -np.inf))), False


@dataclass
class RolloutRecord:
    config: TTCConfig
    ic_family: str
    ic_seed: int
    start: Snapshot
    chosen: list = field(default_factory=list)        # T snapshots
    rewards: list = field(default_factory=list)       # T lists of B floats/None
    selected: list = field(default_factory=list)      # T indices
    fallback_steps: list = field(default_factory=list)
    wall_times: list = field(default_factory=list)

    def states(self) -> list:
        """Start snapshot followed by the chosen trajectory."""
        return [self.start] + list(self.chosen)

    def verify_argmax(self) -> None:
        """Machine-check the selection contract on the stored record."""
        for k, (scores, sel) in enumerate(zip(self.rewards, self.selected)):
            want, fell_back = select(np.array(scores, dtype=np.float64))  # None -> NaN
            if sel != want or fell_back != (k in self.fallback_steps):
                raise AssertionError(
                    f"step {k}: selected {sel} (fallback {k in self.fallback_steps}), "
                    f"but the rule picks {want} (fallback {fell_back}) from {scores}")


def make_reward_model(name: str, *, gamma: float = GAMMA_DEFAULT,
                      prm: ProcessRewardModel | None = None,
                      truth: Trajectory | None = None,
                      norm: Normalization | None = None):
    if name not in _REWARD_MODELS:
        raise ValueError(f"unknown reward {name!r}")
    if name == "prm" and prm is None:
        raise ValueError("reward 'prm' needs a trained process reward model")
    if name == "oracle_mse" and truth is None:
        raise ValueError("reward 'oracle_mse' needs the ground-truth trajectory")
    return _REWARD_MODELS[name](gamma=gamma, prm=prm, truth=truth, norm=norm)


def _physical(s: Snapshot) -> bool:
    try:
        s.validate()
    except SolverError:
        return False
    return True


def greedy_rollout(surrogate: Surrogate, reward_model, u_start: Snapshot,
                   cfg: TTCConfig, truth: Trajectory | None = None) -> RolloutRecord:
    """Run Algorithm-style greedy selection for cfg.n_steps steps.

    ``truth`` is required in teacher-forced mode, where ground truth is
    fed back each step while candidates and picks are still recorded.
    """
    if cfg.teacher_forced and truth is None:
        raise ValueError("teacher-forced rollout needs the ground-truth trajectory")
    rec = RolloutRecord(config=cfg, ic_family="", ic_seed=0, start=u_start)
    state = u_start
    for k in range(cfg.n_steps):
        t0 = time.perf_counter()
        candidates = surrogate.sample_candidates(state, cfg.n_branch, cfg.seed,
                                                 t_index=k)
        physical = [i for i, c in enumerate(candidates) if _physical(c)]
        scores = np.full(len(candidates), np.nan)
        scores[physical] = reward_model.score(state, [candidates[i] for i in physical])
        sel, fell_back = select(scores)
        if fell_back:
            rec.fallback_steps.append(k)
        rec.rewards.append([float(s) if math.isfinite(s) else None for s in scores])
        rec.selected.append(sel)
        chosen = (candidates[sel] if sel in physical
                  else Snapshot(state.data, state.t + surrogate.dt_out))
        rec.chosen.append(chosen)
        rec.wall_times.append(time.perf_counter() - t0)
        state = truth.snapshots[k + 1] if cfg.teacher_forced else chosen
    return rec


def rollout_sweep(surrogate: Surrogate, reward_name: str, trajectories: list,
                  b_list, seed: int, *, prm: ProcessRewardModel | None = None,
                  gamma: float = GAMMA_DEFAULT, n_steps: int = 20,
                  teacher_forced: bool = False, log=None) -> dict:
    """Rollouts for every (trajectory, B); returns {(ic_index, B): record}.

    The per-IC stream seed is shared across B values, so smaller-B runs
    see prefixes of the larger-B candidate streams.
    """
    b_list = list(b_list)
    if not b_list:
        raise ValueError("b_list must be non-empty")
    records = {}
    for idx, truth in enumerate(trajectories):
        ic_seed = mix64(seed, idx)
        reward_model = make_reward_model(reward_name, gamma=gamma, prm=prm,
                                         truth=truth, norm=surrogate.norm)
        for b in b_list:
            cfg = TTCConfig(n_branch=b, reward=reward_name, seed=ic_seed,
                            n_steps=n_steps, teacher_forced=teacher_forced)
            rec = greedy_rollout(surrogate, reward_model, truth.snapshots[0], cfg,
                                 truth=truth)
            rec.ic_family = truth.ic.family
            rec.ic_seed = truth.ic.seed
            records[(idx, b)] = rec
            if log:
                log(f"rollout ic={idx} B={b} reward={reward_name} done")
    return records


# ---------------------------------------------------------------------------
# Persistence: <base>.json metadata + <base>.bin field container


def save_rollout_record(base_path, rec: RolloutRecord) -> None:
    base = Path(base_path)
    states = rec.states()
    grid_shape = states[0].rho.shape
    meta = {
        "config": asdict(rec.config),
        "ic_family": rec.ic_family,
        "ic_seed": rec.ic_seed,
        "times": [s.t for s in states],
        "rewards": rec.rewards,
        "selected": rec.selected,
        "fallback_steps": rec.fallback_steps,
        "wall_times": rec.wall_times,
    }
    write_text(base.with_suffix(".json"), json.dumps(meta, indent=2) + "\n")
    header = {"record_type": "ROLLOUT", "channel_order": ["rho", "vx", "vy", "p"],
              "times": meta["times"],
              "grid": {"nx": grid_shape[0], "ny": grid_shape[1]}}
    payload = np.stack([s.fields() for s in states])
    write_container(base.with_suffix(".bin"), header, payload)


def load_rollout_record(base_path) -> RolloutRecord:
    """The record saved at base_path; a metadata file that lacks a key,
    holds a value of the wrong kind or times another number of states
    than the container holds raises StorageError naming it."""
    base = Path(base_path)
    meta_path = base.with_suffix(".json")
    meta = read_json(meta_path)
    header, payload = read_container(base.with_suffix(".bin"), expect_type="ROLLOUT")
    try:
        times = meta["times"]
        if len(times) != len(payload):
            raise ValueError(f"{len(times)} times for {len(payload)} states")
        states = [Snapshot.from_fields(payload[i], times[i]) for i in range(len(times))]
        return RolloutRecord(
            config=TTCConfig(**meta["config"]),
            ic_family=meta["ic_family"], ic_seed=meta["ic_seed"],
            start=states[0], chosen=states[1:],
            rewards=[[None if s is None else float(s) for s in row]
                     for row in meta["rewards"]],
            selected=list(meta["selected"]),
            fallback_steps=list(meta["fallback_steps"]),
            wall_times=list(meta["wall_times"]),
        )
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise StorageError(f"{meta_path}: not a rollout record: "
                           f"{type(exc).__name__} {exc}") from None
