"""Rollout evaluation: MSE curves, sample gain, conservation traces.

MSE is averaged over the four physical channels and all cells, in
normalized (per-channel z-score) units when statistics are supplied, so
channels with different scales contribute comparably.  Sample gain is
the paired ratio MSE_B / MSE_{B=1}; the table-level aggregate is
(1 - mean ratio) reported in percent.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .euler import Normalization, Snapshot, check_same_grid, totals
from .rewards import (energy_violation, mass_violation, momentum_violation,
                      norm_mse)
from .storage import write_text
from .ttc import RolloutRecord

# The columns of metrics.csv, which are the keys of each row in this order
CSV_COLUMNS = ("dataset", "family", "ic_seed", "model", "reward", "B", "t",
               "mse", "sg", "mass_arm", "mom_x_arm", "mom_y_arm", "energy_arm")


def mse(a: Snapshot, b: Snapshot, norm: Normalization | None = None) -> float:
    """Mean squared difference over 4 channels x cells."""
    check_same_grid(a, [b])
    return norm_mse(a.fields(), b.fields(), norm)


def sample_gain(mse_b: float, mse_1: float) -> float:
    """Paired per-sample ratio; below 1 means the B-run improved."""
    if mse_1 <= 0.0:
        raise ValueError("baseline MSE must be positive")
    return mse_b / mse_1


def aggregate_gain(ratios) -> float:
    """(1 - mean sample-gain ratio) in percent."""
    ratios = list(ratios)
    if not ratios:
        raise ValueError("need at least one ratio")
    return (1.0 - float(np.mean(ratios))) * 100.0


def conservation_trace(record: RolloutRecord, gamma: float) -> dict:
    """ARM values along the chosen trajectory, one entry per step.

    Momentum entries where the reward is undefined (near-zero total)
    are NaN.
    """
    states = record.states()
    sums = [totals(s, gamma) for s in states]   # each state once
    n = len(states) - 1
    out = {k: np.empty(n) for k in ("mass", "momentum_x", "momentum_y", "energy")}
    for k in range(n):
        check_same_grid(states[k], [states[k + 1]])
        (m_t, px_t, py_t, e_t), (m_n, px_n, py_n, e_n) = sums[k], sums[k + 1]
        n_cells = states[k].rho.size
        out["mass"][k] = mass_violation(m_t, m_n)
        out["momentum_x"][k] = momentum_violation(px_t, px_n, n_cells)
        out["momentum_y"][k] = momentum_violation(py_t, py_n, n_cells)
        out["energy"][k] = energy_violation(e_t, e_n)
    return out


@dataclass
class EvalReport:
    """Flat per-(ic, t, B, reward) rows plus per-(reward, B) aggregates."""

    dataset_label: str
    model_label: str
    rows: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)   # (reward, B) -> percent gain
    final_mse: dict = field(default_factory=dict)    # (reward, B) -> mean final MSE
    curves: dict = field(default_factory=dict)       # (reward, B) -> mean MSE per t

    def summary_dict(self) -> dict:
        agg = {}
        fin = {}
        for (reward, b), v in self.aggregates.items():
            agg.setdefault(reward, {})[str(b)] = v
        for (reward, b), v in self.final_mse.items():
            fin.setdefault(reward, {})[str(b)] = v
        return {"dataset": self.dataset_label, "model": self.model_label,
                "aggregate_gain_percent": agg, "mean_final_mse": fin}


def evaluate(records, trajectories: list, norm: Normalization | None,
             gamma: float, dataset_label: str = "",
             model_label: str = "") -> EvalReport:
    """Build an EvalReport from (reward, ic_index, B, record) items.

    Each record is reduced as it arrives to its per-step MSE against
    ``trajectories[ic_index]``, its `conservation_trace` and its IC family
    and seed, and then dropped, so an iterator that loads the records one
    at a time keeps one in memory.  A later item of the same (reward,
    ic_index, B) replaces an earlier one.  The rows run over the rewards
    in the order they first arrive, then B and then the IC ascending.

    Sample gains pair each record against the B=1 record of the same
    reward and IC; they are omitted when no B=1 run exists.
    """
    runs: dict = {}     # reward -> {(ic, B): (per-step MSE, trace, family, ic seed)}
    for reward, ic, b, rec in records:
        truth = trajectories[ic]
        errs = [mse(s, truth.snapshots[k + 1], norm) for k, s in enumerate(rec.chosen)]
        runs.setdefault(reward, {})[(ic, b)] = (errs, conservation_trace(rec, gamma),
                                                rec.ic_family, rec.ic_seed)
        del rec         # before the iterator loads the next record
    report = EvalReport(dataset_label=dataset_label, model_label=model_label)
    for reward, reduced in runs.items():
        b_values = sorted({b for (_, b) in reduced})
        ic_values = sorted({i for (i, _) in reduced})
        for b in b_values:
            finals, ratios_final = [], []
            curve = np.zeros(len(reduced[(ic_values[0], b)][0]))
            for ic in ic_values:
                errs, trace, family, ic_seed = reduced[(ic, b)]
                base = reduced[(ic, 1)][0] if (ic, 1) in reduced else None
                for k, e in enumerate(errs):
                    sg = sample_gain(e, base[k]) if base else None
                    report.rows.append(dict(zip(CSV_COLUMNS, (
                        dataset_label, family, ic_seed, model_label, reward, b, k + 1, e, sg,
                        trace["mass"][k], trace["momentum_x"][k], trace["momentum_y"][k],
                        trace["energy"][k]))))
                curve += np.asarray(errs)
                finals.append(errs[-1])
                if base:
                    ratios_final.append(sample_gain(errs[-1], base[-1]))
            report.curves[(reward, b)] = (curve / len(ic_values)).tolist()
            report.final_mse[(reward, b)] = float(np.mean(finals))
            if ratios_final:
                report.aggregates[(reward, b)] = aggregate_gain(ratios_final)
    return report


def write_rows_csv(path, rows) -> None:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
    w.writeheader()
    for row in rows:
        out = dict(row)
        for k, v in out.items():
            if v is None or (isinstance(v, float) and not np.isfinite(v)):
                out[k] = ""
        w.writerow(out)
    write_text(path, buf.getvalue())


def write_summary_json(path, report: EvalReport, extra: dict | None = None) -> None:
    doc = report.summary_dict()
    if extra:
        doc.update(extra)
    write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
