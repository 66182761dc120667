"""Greedy best-of-B autoregressive rollouts under a pluggable reward.

Each step draws B stochastic candidate next snapshots, scores every
(current, candidate) pair with the reward model, and feeds the argmax
candidate forward (ties broken by lowest candidate index).  Candidate
RNG streams depend only on (rollout seed, timestep, candidate index),
so the B=1 candidate is the first candidate of every larger-B run and
sweeps over B are paired by construction.

A score is undefined (None) when the candidate is non-physical
(non-finite fields, rho <= 0 or p <= 0; the reward is not called), when
the reward raises `UndefinedReward`, or when it returns a non-finite
value.  A step whose scores are all undefined falls back to candidate 0
and is listed in ``fallback_steps``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .euler import GAMMA_DEFAULT, Normalization, Snapshot, SolverError, Trajectory
from .rewards import (EnergyReward, MassReward, MomentumReward,
                      OracleMseReward, ProcessRewardModel, UndefinedReward)
from .rng import mix64
from .storage import read_container, write_container
from .surrogate import Surrogate

REWARD_NAMES = ("arm_mass", "arm_momentum_x", "arm_momentum_y", "arm_energy",
                "prm", "oracle_mse")


@dataclass(frozen=True)
class TTCConfig:
    n_branch: int = 1                 # branching factor B
    reward: str = "arm_mass"
    seed: int = 0
    n_steps: int = 20                 # rollout steps T
    paired_streams: bool = True       # False: mix B into the stream seed
    teacher_forced: bool = False      # feed ground truth back instead of the pick

    def __post_init__(self):
        if self.n_branch < 1:
            raise ValueError("branching factor must be >= 1")
        if self.n_steps < 1:
            raise ValueError("need at least one rollout step")
        if self.reward not in REWARD_NAMES:
            raise ValueError(f"unknown reward {self.reward!r}")

    def to_dict(self) -> dict:
        return {"n_branch": self.n_branch, "reward": self.reward, "seed": self.seed,
                "n_steps": self.n_steps, "paired_streams": self.paired_streams,
                "teacher_forced": self.teacher_forced}


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
            defined = [(i, s) for i, s in enumerate(scores) if s is not None]
            if not defined:
                if k not in self.fallback_steps or sel != 0:
                    raise AssertionError(f"step {k}: bad fallback handling")
                continue
            best = max(s for _, s in defined)
            winners = [i for i, s in defined if s == best]
            if scores[sel] != best or sel != winners[0]:
                raise AssertionError(
                    f"step {k}: selected {sel} (score {scores[sel]}) is not the "
                    f"lowest-index argmax {winners[0]} (score {best})")


def make_reward_model(name: str, *, gamma: float = GAMMA_DEFAULT,
                      prm: ProcessRewardModel | None = None,
                      truth: Trajectory | None = None,
                      norm: Normalization | None = None):
    if name == "arm_mass":
        return MassReward()
    if name == "arm_momentum_x":
        return MomentumReward("x")
    if name == "arm_momentum_y":
        return MomentumReward("y")
    if name == "arm_energy":
        return EnergyReward(gamma)
    if name == "prm":
        if prm is None:
            raise ValueError("reward 'prm' needs a trained process reward model")
        return prm
    if name == "oracle_mse":
        if truth is None:
            raise ValueError("reward 'oracle_mse' needs the ground-truth trajectory")
        return OracleMseReward(truth, norm)
    raise ValueError(f"unknown reward {name!r}")


def _candidate_score(reward_model, state: Snapshot, cand: Snapshot) -> float | None:
    """The reward of one candidate, or None where it is undefined.

    Private, so that a tracer wrapping the public callables sees each
    reward call as a direct child of `greedy_rollout`.
    """
    try:
        cand.validate()
    except SolverError:
        return None
    try:
        score = float(reward_model.score(state, cand))
    except UndefinedReward:
        return None
    return score if math.isfinite(score) else None


def greedy_rollout(surrogate: Surrogate, reward_model, u_start: Snapshot,
                   cfg: TTCConfig, truth: Trajectory | None = None) -> RolloutRecord:
    """Run Algorithm-style greedy selection for cfg.n_steps steps.

    ``truth`` is required in teacher-forced mode, where ground truth is
    fed back each step while candidates and picks are still recorded.
    """
    if cfg.teacher_forced and truth is None:
        raise ValueError("teacher-forced rollout needs the ground-truth trajectory")
    rec = RolloutRecord(config=cfg, ic_family="", ic_seed=0, start=u_start)
    stream_seed = cfg.seed if cfg.paired_streams else mix64(cfg.seed, cfg.n_branch)
    state = u_start
    for k in range(cfg.n_steps):
        t0 = time.perf_counter()
        candidates = surrogate.sample_candidates(state, cfg.n_branch, stream_seed,
                                                 t_index=k)
        scores = [_candidate_score(reward_model, state, c) for c in candidates]
        defined = [(i, s) for i, s in enumerate(scores) if s is not None]
        if defined:
            best = max(s for _, s in defined)
            sel = next(i for i, s in defined if s == best)
        else:
            sel = 0
            rec.fallback_steps.append(k)
        rec.rewards.append(scores)
        rec.selected.append(sel)
        rec.chosen.append(candidates[sel])
        rec.wall_times.append(time.perf_counter() - t0)
        state = truth.snapshots[k + 1] if cfg.teacher_forced else candidates[sel]
    return rec


def rollout_sweep(surrogate: Surrogate, reward_name: str, trajectories: list,
                  b_list, seed: int, *, prm: ProcessRewardModel | None = None,
                  gamma: float = GAMMA_DEFAULT, n_steps: int = 20,
                  paired_streams: bool = True, teacher_forced: bool = False,
                  log=None) -> dict:
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
                            n_steps=n_steps, paired_streams=paired_streams,
                            teacher_forced=teacher_forced)
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
        "config": rec.config.to_dict(),
        "ic_family": rec.ic_family,
        "ic_seed": rec.ic_seed,
        "times": [s.t for s in states],
        "rewards": rec.rewards,
        "selected": rec.selected,
        "fallback_steps": rec.fallback_steps,
        "wall_times": rec.wall_times,
    }
    base.with_suffix(".json").write_text(json.dumps(meta, indent=2) + "\n")
    header = {"record_type": "ROLLOUT", "channel_order": ["rho", "vx", "vy", "p"],
              "times": meta["times"],
              "grid": {"nx": grid_shape[0], "ny": grid_shape[1]}}
    payload = np.stack([s.fields() for s in states])
    write_container(base.with_suffix(".bin"), header, payload)


def load_rollout_record(base_path) -> RolloutRecord:
    base = Path(base_path)
    meta = json.loads(base.with_suffix(".json").read_text())
    header, payload = read_container(base.with_suffix(".bin"), expect_type="ROLLOUT")
    times = meta["times"]
    states = [Snapshot.from_fields(payload[i], times[i]) for i in range(len(times))]
    rec = RolloutRecord(
        config=TTCConfig(**meta["config"]),
        ic_family=meta["ic_family"], ic_seed=meta["ic_seed"],
        start=states[0], chosen=states[1:],
        rewards=[[None if s is None else float(s) for s in row]
                 for row in meta["rewards"]],
        selected=list(meta["selected"]),
        fallback_steps=list(meta["fallback_steps"]),
        wall_times=list(meta["wall_times"]),
    )
    return rec
