"""Reward models over a current snapshot and its candidate successors.

Every reward model has one method, ``score(cur, cands) -> ndarray``: the
float64 score of each snapshot in ``cands`` as the successor of ``cur``,
higher is better, and NaN where the score is undefined.  The rollout
engine calls it once per step with the physical candidates of that step.

Three analytical reward models (ARMs) measure violation of discrete
conservation totals between consecutive snapshots; each totals the
current snapshot once per call.  All are <= 0, with 0 meaning the totals
match exactly, and the momentum ARMs are undefined (NaN) where the
current net momentum is near zero.  The learned process reward model
(PRM) shares the transformer family of the surrogate, reads the
channel-concatenated pair, and is trained with a contrastive triplet
margin loss on candidates ranked by MSE against ground truth.  It scores
each candidate with its own batch-1 forward, so a candidate's score does
not depend on which other candidates are scored with it.  A scoring call
builds one pair input, with the current snapshot normalised once, and
rewrites only its candidate half for each candidate.

The ranked triples have one representation, `Triplets`, float32 rows
that `build_prm_triplets` makes from the surrogate's candidate streams:
the PRM trains and is judged on those numbers.  They are not stored; the
streams are counter-based, so building again with the same surrogate,
dataset, K and seed gives the same rows bit for bit.

The PRM is a `surrogate.Model`, whose docstring states its constructor,
input layout and checkpoint contract; it trains through `surrogate.fit`,
and `ranking_accuracy` scores through `ProcessRewardModel.score`, as a
rollout does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .euler import (CHANNELS, Dataset, Normalization, Snapshot, Trajectory,
                    check_same_grid, energy_density, total)
from .rng import RngStream, mix64
from .surrogate import Model, Surrogate, TrainResult, accumulate_grad, check_fit_config, fit
from .vit import MODE_DETERMINISTIC, ModelConfig, VisionTransformer

_PRM_INIT_TAG = 0x9137
_PRM_SHUFFLE_TAG = 0x3F21
_PRM_DROPOUT_TAG = 0xD1
_TRIPLET_TAG = 0x7319

MOMENTUM_EPS_PER_CELL = 1e-12
DEGENERATE_MSE_SPREAD = 1e-14


def mass_violation(m_t: float, m_next: float) -> float:
    """Mass ARM value from the two snapshots' total densities."""
    if m_t <= 0.0:
        raise ValueError("total density of the current snapshot must be positive")
    return -abs(m_next - m_t) / m_t


def momentum_violation(p_t: float, p_next: float, n_cells: int) -> float:
    """Momentum ARM value; NaN (undefined) when the current total is near zero."""
    if abs(p_t) <= MOMENTUM_EPS_PER_CELL * n_cells:
        return math.nan
    return -abs(p_next - p_t) / abs(p_t)


def energy_violation(e_t: float, e_next: float) -> float:
    """Energy ARM value from the two snapshots' total energies."""
    return -abs(e_next - e_t) / e_t


def norm_mse(a_fields: np.ndarray, b_fields: np.ndarray,
             norm: Normalization | None) -> float:
    """Mean squared difference of two field stacks, in z-score units when
    ``norm`` is given."""
    d = a_fields - b_fields
    if norm is not None:
        d = d / norm.std[:, None, None]
    return float(np.mean(d * d))


class MassReward:
    def score(self, cur: Snapshot, cands) -> np.ndarray:
        check_same_grid(cur, cands)
        m_t = total(cur.rho)
        return np.array([mass_violation(m_t, total(c.rho)) for c in cands],
                        dtype=np.float64)


class MomentumReward:
    def __init__(self, component: str):
        if component not in ("x", "y"):
            raise ValueError(f"component must be 'x' or 'y', got {component!r}")
        self.component = component
        self._channel = CHANNELS.index(f"v{component}")

    def score(self, cur: Snapshot, cands) -> np.ndarray:
        check_same_grid(cur, cands)
        c = self._channel
        p_t = total(cur.rho * cur.data[c])
        return np.array([momentum_violation(p_t, total(s.rho * s.data[c]), cur.rho.size)
                         for s in cands], dtype=np.float64)


class EnergyReward:
    def __init__(self, gamma: float):
        self.gamma = gamma

    def score(self, cur: Snapshot, cands) -> np.ndarray:
        check_same_grid(cur, cands)
        e_t = total(energy_density(cur, self.gamma))
        return np.array([energy_violation(e_t, total(energy_density(c, self.gamma)))
                         for c in cands], dtype=np.float64)


class OracleMseReward:
    """Diagnostic upper bound: score = -MSE against the true next snapshot."""

    def __init__(self, truth: Trajectory, norm: Normalization | None):
        self.truth = truth
        self.norm = norm
        self._dt = float(truth.times[1] - truth.times[0])

    def score(self, cur: Snapshot, cands) -> np.ndarray:
        targets = (self.truth.snapshots[int(round(c.t / self._dt))] for c in cands)
        return np.array([-norm_mse(c.fields(), target.fields(), self.norm)
                         for c, target in zip(cands, targets)], dtype=np.float64)


# ---------------------------------------------------------------------------
# Triplet construction


@dataclass(frozen=True, eq=False)
class Triplets:
    """Ranked triples: the float32 (n, 4, 4, nx, ny) current, best, median
    and worst ``fields``, and one ``meta`` dict {"traj", "t_index", "t",
    "t_next", "mse"} per triple, mse ascending."""

    fields: np.ndarray
    meta: list

    def __post_init__(self):
        n = len(self.meta)
        if self.fields.ndim != 5 or self.fields.shape[:3] != (n, 4, 4):
            raise ValueError(f"fields of shape {self.fields.shape} for {n} triples")
        for m in self.meta:
            row = [m["traj"], m["t_index"], m["t"], m["t_next"], *m["mse"]]
            if len(row) != 7 or not all(isinstance(v, (int, float)) for v in row):
                raise ValueError(f"not a triplet row: {m}")
            if not row[4] <= row[5] <= row[6]:
                raise ValueError(f"triplet mse must be ascending, got {m['mse']}")

    def __len__(self) -> int:
        return len(self.meta)


def build_prm_triplets(surrogate: Surrogate, dataset: Dataset, k_candidates: int,
                       seed: int, indices=None, log=None) -> Triplets:
    """Rank K stochastic candidates per consecutive train pair.

    Keeps the argmin / rank-floor(K/2) / argmax candidates by MSE against
    the true next snapshot (ties -> lowest candidate index); skips pairs
    whose candidates are numerically indistinguishable.  A step's K
    candidates are drawn one at a time from one
    `Surrogate.candidate_sampler`, the sampler of
    `Surrogate.sample_candidates`, so each step embeds its state once;
    each candidate is kept only as a float32 row of one buffer that
    every step reuses; each kept triplet row is written once, straight
    into the returned array, which is sized for every pair and shrunk in
    place if some were skipped.
    """
    if k_candidates < 3:
        raise ValueError("need at least 3 candidates per pair")
    indices = list(dataset.split["train"] if indices is None else indices)
    shape = (4, dataset.grid.nx, dataset.grid.ny)
    meta, fields = [], np.empty((sum(len(dataset.trajectories[ti]) - 1 for ti in indices),
                                 4) + shape, dtype=np.float32)
    cands, mses = np.empty((k_candidates,) + shape, dtype=np.float32), np.empty(k_candidates)
    for ti in indices:
        tr = dataset.trajectories[ti]
        pair_seed = mix64(seed, _TRIPLET_TAG, ti)
        for k in range(len(tr) - 1):
            u_t = tr.snapshots[k]
            target = tr.snapshots[k + 1].fields()
            draw = surrogate.candidate_sampler(u_t, pair_seed, k)
            for i in range(k_candidates):
                c = draw(i)
                mses[i] = norm_mse(c.fields(), target, surrogate.norm)
                cands[i] = c.fields()
            if not float(mses.max() - mses.min()) < DEGENERATE_MSE_SPREAD:  # NaN: kept
                order = np.argsort(mses, kind="stable")
                picks = (int(order[0]), int(order[k_candidates // 2]), int(np.argmax(mses)))
                fields[len(meta), 0] = u_t.fields()
                for slot, i in enumerate(picks, 1):
                    fields[len(meta), slot] = cands[i]
                meta.append({"traj": int(ti), "t_index": k, "t": u_t.t,
                             "t_next": c.t, "mse": [float(mses[i]) for i in picks]})
        if log:
            log(f"triplets: trajectory {ti} done ({len(meta)} records)")
    fields.resize((len(meta),) + fields.shape[1:], refcheck=False)   # no view of it is alive
    return Triplets(fields, meta)


# ---------------------------------------------------------------------------
# Process reward model


@dataclass(frozen=True)
class PRMConfig:
    backbone: ModelConfig
    margin: float = 0.1
    k_candidates: int = 100
    lr: float = 1e-4
    weight_decay: float = 0.0
    batch_triplets: int = 8
    epochs: int = 10
    patience: int = 3
    seed: int = 0

    def __post_init__(self):
        check_fit_config(self)
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")
        if not self.margin > 0.0:
            raise ValueError(f"margin must be positive, got {self.margin}")
        if self.k_candidates < 3:
            raise ValueError(f"need K >= 3 candidates, got {self.k_candidates}")
        if self.batch_triplets < 1:
            raise ValueError(f"batch_triplets must be >= 1, got {self.batch_triplets}")


def prm_backbone_config(model_cfg: ModelConfig) -> ModelConfig:
    """Scalar-head twin of the surrogate: 2x(4 fields + time) input channels."""
    return replace(model_cfg, in_channels=10, head="scalar")


class ProcessRewardModel(Model):
    """Scalar-scoring transformer over a (current, candidate) snapshot pair."""

    kind, head, n_snapshots, init_tag = "prm", "scalar", 2, _PRM_INIT_TAG

    def score(self, cur: Snapshot, cands) -> np.ndarray:
        """One batch-1 forward per candidate: a batched float32 forward
        rounds differently, so a candidate's score would depend on B.
        The pair input is built once, and each candidate rewrites its
        candidate half; a forward leaves its input alone."""
        x = np.empty((1, 5 * self.n_snapshots, *cur.rho.shape), dtype=np.float32)
        self.put_input(x, 0, cur.fields()[None], cur.t)
        scores = np.empty(len(cands))
        for j, c in enumerate(cands):
            self.put_input(x, 1, c.fields()[None], c.t)
            scores[j] = self.model.forward(x, MODE_DETERMINISTIC)[0]
        return scores


def ranking_accuracy(prm: ProcessRewardModel, triplets: Triplets) -> float:
    """Fraction of triplets whose best candidate outscores the worst under
    `ProcessRewardModel.score`, the scores a rollout sees."""
    if not triplets:
        return np.nan
    correct = 0
    for row, m in zip(triplets.fields, triplets.meta):
        best, worst = (Snapshot.from_fields(row[j], m["t_next"]) for j in (1, 3))
        s_best, s_worst = prm.score(Snapshot.from_fields(row[0], m["t"]), [best, worst])
        correct += int(s_best > s_worst)
    return correct / len(triplets)


def accumulate_margin_grad(model: VisionTransformer, nb: int, build, margin: float,
                           rng: RngStream | None) -> float:
    """`accumulate_grad` of the mean triplet margin loss over a batch of
    ``nb`` triplets, where ``build(rows)`` returns the inputs of the
    triplets ``rows``: (worst, median, best) pair inputs per triplet, in
    that order.  One micro-batch of max(1, micro_batch // 3) whole
    triplets at a time, each term scaled by the whole batch's triplet
    count; returns the loss."""

    def loss(out, _):
        s = out.reshape(-1, 3)
        h1 = s[:, 0] - s[:, 1] + margin
        h2 = s[:, 1] - s[:, 2] + margin
        g1 = (h1 > 0.0).astype(np.float64) / nb
        g2 = (h2 > 0.0).astype(np.float64) / nb
        term = float(np.sum(np.maximum(h1, 0.0) + np.maximum(h2, 0.0))) / nb
        return term, np.stack([g1, g2 - g1, -g2], axis=1).reshape(-1)

    return accumulate_grad(model, nb, max(1, model.micro_batch // 3),
                           lambda rows: (build(rows), None), rng, loss)


def train_prm(triplets: Triplets, prm_cfg: PRMConfig, normalization: Normalization,
              holdout: Triplets | None = None, log=None) -> TrainResult:
    """`surrogate.fit` a new PRM to the mean triplet margin loss over
    ranked candidate triples.

    Keeps the weights of the best pairwise ranking accuracy on the
    ``holdout`` triplets, or of the lowest train loss without them, and
    stops after ``prm_cfg.patience`` + 1 epochs without improvement.
    """
    if not triplets:
        raise ValueError("need at least one triplet")
    prm = ProcessRewardModel(prm_backbone_config(prm_cfg.backbone),
                             normalization, init_seed=prm_cfg.seed)

    def step(sel, rng):
        def build(rows):
            chunk = triplets.fields[sel[rows]]
            t, t_next = np.array([[triplets.meta[j][k] for k in ("t", "t_next")]
                                  for j in sel[rows]]).T
            cand = chunk[:, [3, 2, 1]].reshape(-1, *chunk.shape[2:])   # worst, median, best
            return prm.inputs((np.repeat(chunk[:, 0], 3, axis=0), np.repeat(t, 3)),
                              (cand, np.repeat(t_next, 3)))

        return accumulate_margin_grad(prm.model, len(sel), build, prm_cfg.margin, rng)

    def judge(train_loss):
        acc = ranking_accuracy(prm, holdout) if holdout else np.nan
        return (acc if holdout else -train_loss), {"holdout_accuracy": acc}

    return fit(prm, len(triplets), prm_cfg.batch_triplets, prm_cfg,
               (_PRM_SHUFFLE_TAG, _PRM_DROPOUT_TAG), step, judge, log, prm_cfg.patience)
