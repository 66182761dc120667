"""Command-line experiment harness.

Subcommands: gen-data, train, finetune, train-prm, rollout, evaluate,
report.  All take an optional JSON config; command-line flags override
file values, and the env var PDETTC_SEED overrides the config seed
(flags still win).  `DEFAULTS` is the config schema: a key that is not
in it is rejected, and each value must have its default's type (an int
is accepted for a float).  Every config-bound flag has its dotted config
key as its argparse ``dest`` (``--epochs`` of train is ``train.epochs``),
except ``--grid``, which sets both ``grid.nx`` and ``grid.ny``.  Values
are checked where they become a grid, a training or PRM config, a family
list or a rollout length, before a command does any work; the worker
cap ``jobs`` and ``data.n_per_family`` must be at least 1 for every
command.  Every command is deterministic given its effective config;
artifacts embed the config digest that produced them.

Exit codes: 0 ok, 2 config or input error (a bad flag or config value, a
missing, corrupt or mismatched input file; one line on stderr), 3
numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import math
import os
import sys
from pathlib import Path

from . import euler, metrics, render, rewards, storage, surrogate as sg, ttc
from .nn import NonFiniteActivation, NonFiniteGradient
from .vit import ModelConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


def _field_defaults(config) -> dict:
    """Field values of a config dataclass or instance, leaving out the ones
    set from elsewhere (the seed and the PRM's backbone)."""
    return {f.name: getattr(config, f.name) for f in dataclasses.fields(config)
            if f.name not in ("seed", "backbone")}


DEFAULTS = {
    "seed": 0,
    "jobs": 1,
    "grid": {"nx": 64, "ny": 64},
    "data": {
        "families": ["rp"],
        "n_per_family": 16,
        "split": [0.75, 0.125, 0.125],
        "gamma": euler.GAMMA_DEFAULT,
        "cfl": euler.CFL_DEFAULT,
        "path": "dataset.pdt",
    },
    "model": {"preset": "desk", "patch": "vit5"},
    "train": _field_defaults(sg.TrainConfig),
    "finetune": {**_field_defaults(sg.FINETUNE_CONFIG), "n_traj": 32},
    "prm": {**_field_defaults(rewards.PRMConfig),
            "train_trajectories": 0, "holdout_trajectories": 0},
    "ttc": {"b_list": [1, 4, 16, 64], "reward": "prm", "n_steps": 20,
            "teacher_forced": False, "n_ics": 0, "split": "test"},
}

# Dotted names of the config values, e.g. "seed" and "train.epochs".
_CONFIG_KEYS = frozenset(
    [name for name, value in DEFAULTS.items() if not isinstance(value, dict)]
    + [f"{name}.{key}" for name, value in DEFAULTS.items() if isinstance(value, dict)
       for key in value])


def _validate(doc, defaults, prefix="") -> None:
    for key, value in doc.items():
        path = f"{prefix}{key}"
        if key not in defaults:
            raise ConfigError(f"unknown config key '{path}'")
        want = type(defaults[key])
        if want is dict:
            if not isinstance(value, dict):
                raise ConfigError(f"config key '{path}' must be an object")
            _validate(value, defaults[key], prefix=f"{path}.")
            continue
        accepted = (int, float) if want is float else want
        # bool is a subclass of int: a bool is accepted for a bool key only
        if not (isinstance(value, accepted) and isinstance(value, bool) == (want is bool)):
            raise ConfigError(
                f"config key '{path}' must be {want.__name__}, got {type(value).__name__}")


def _check_counts(cfg: dict) -> None:
    """ConfigError unless the worker cap and the trajectories per family
    are at least 1."""
    for key, value in (("jobs", cfg["jobs"]),
                       ("data.n_per_family", cfg["data"]["n_per_family"])):
        if value < 1:
            raise ConfigError(f"config key '{key}' must be >= 1, got {value}")


def _deep_update(base: dict, overlay: dict) -> dict:
    for k, v in overlay.items():
        if isinstance(v, dict):
            _deep_update(base[k], v)
        else:
            base[k] = v
    return base


def load_config(path: str | None) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    if path:
        try:
            doc = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
        _validate(doc, DEFAULTS)
        _parse_list_values(doc)
        _deep_update(cfg, doc)
    env_seed = os.environ.get("PDETTC_SEED")
    if env_seed is not None:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"PDETTC_SEED must be an integer, got {env_seed!r}") from None
    return cfg


def config_digest(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _checked(key: str, build, *args, **kwargs):
    """build(*args, **kwargs), with the ValueError it raises for a bad
    config value reported as a ConfigError naming the config key."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"config '{key}': {exc}") from None


_PATCH = {"vit3": 3, "vit5": 5, "vit7": 7}


def model_config_for(cfg: dict, grid: euler.GridSpec) -> ModelConfig:
    preset = cfg["model"]["preset"]
    if preset == "desk":
        base = sg.DESK_MODEL
    elif preset == "paper":
        base = sg.PAPER_MODEL
    else:
        raise ConfigError(f"unknown size preset {preset!r} (desk | paper)")
    patch_name = cfg["model"]["patch"]
    if patch_name not in _PATCH:
        raise ConfigError(f"unknown model preset {patch_name!r} (vit3 | vit5 | vit7)")
    return dataclasses.replace(base, height=grid.nx, width=grid.ny,
                               patch_size=_PATCH[patch_name])


# ---------------------------------------------------------------------------
# Commands


def cmd_gen_data(cfg: dict) -> int:
    d = cfg["data"]
    grid = _checked("grid", euler.GridSpec, cfg["grid"]["nx"], cfg["grid"]["ny"])
    _checked("data", euler.check_solver_inputs, d["families"], d["gamma"], d["cfl"])
    ds = euler.generate_dataset(d["families"], d["n_per_family"], grid, cfg["seed"],
                                tuple(d["split"]), d["gamma"], d["cfl"], jobs=cfg["jobs"])
    out = Path(d["path"])
    out.parent.mkdir(parents=True, exist_ok=True)
    storage.save_dataset(out, ds, config_digest(cfg))
    print(f"wrote {out} ({len(ds.trajectories)} trajectories, "
          f"split {[len(ds.split[k]) for k in ('train', 'val', 'test')]})")
    for fam in ds.families:
        drifts = [euler.conservation_drift(tr, ds.gamma)
                  for tr in ds.trajectories if tr.ic.family == fam]
        if not drifts:
            continue
        worst = {k: max(dr[k] for dr in drifts) for k in drifts[0]}
        print(f"audit family={fam} max mass drift={worst['mass']:.3e} "
              f"momentum_x={worst['momentum_x']:.3e} "
              f"momentum_y={worst['momentum_y']:.3e} energy={worst['energy']:.3e}")
    return EXIT_OK


def _train_config(cfg: dict, section: str) -> sg.TrainConfig:
    """The TrainConfig of the 'train' or 'finetune' section."""
    return _checked(section, sg.TrainConfig, seed=cfg["seed"],
                    **{k: cfg[section][k] for k in DEFAULTS["train"]})


def _train_ids(ds: euler.Dataset, data_path: str, command: str) -> list:
    """The dataset's train trajectories, which a training command needs."""
    if not ds.split["train"]:
        sizes = "/".join(str(len(ds.split[k])) for k in ("train", "val", "test"))
        raise ConfigError(f"{command} needs train trajectories, and {data_path} has none "
                          f"(train/val/test {sizes})")
    return ds.split["train"]


def _check_grid(model, path, shape, against) -> None:
    """The model of the checkpoint at path must be for the (nx, ny) grid
    ``shape`` of the artifact ``against``."""
    got = (model.config.height, model.config.width)
    if got != tuple(shape):
        raise ConfigError(f"{path} holds a model for a {got[0]}x{got[1]} grid, but "
                          f"{against} is on a {shape[0]}x{shape[1]} grid")


def _log_epoch(rec) -> None:
    print(f"epoch {rec['epoch']}: loss {rec['train_loss']:.6g} "
          f"val {rec['val_mse']:.6g} ({rec['seconds']:.1f}s)")


def _val_summary(result) -> str:
    """The summary of a surrogate's training.  A run in which no epoch ran
    has only the epoch -1 record of the weights it kept."""
    if not result.history:
        return "no training epochs ran"
    ran = sum(h["epoch"] >= 0 for h in result.history)
    return (f"best val MSE {min(h['val_mse'] for h in result.history):.6g} "
            f"over {ran} epochs")


def _finish_training(result, out_path: str, command: str, figure: str,
                     summary: str) -> int:
    """Save the trained model at out_path and its history, with the
    records' ``figure`` column, as <out_path>.loss.csv; print the summary
    line, and on divergence a line on stderr, returning exit 3."""
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    result.model.save(out)
    columns = ("epoch", "train_loss", figure, "seconds")
    rows = [columns] + [[h[c] for c in columns] for h in result.history]
    storage.write_text(out.with_suffix(out.suffix + ".loss.csv"),
                       "".join(",".join(map(str, row)) + "\n" for row in rows))
    print(f"{command}: {summary}; checkpoint {out}")
    if result.diverged:
        print(f"{command}: training diverged; kept last good checkpoint", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_train(cfg: dict, data_path: str, out_path: str) -> int:
    tc = _train_config(cfg, "train")
    ds = storage.load_dataset(data_path)
    _train_ids(ds, data_path, "train")
    result = sg.train(ds, model_config_for(cfg, ds.grid), tc, _log_epoch)
    return _finish_training(result, out_path, "train", "val_mse", _val_summary(result))


def cmd_finetune(cfg: dict, from_path: str, data_path: str, out_path: str) -> int:
    tc = _train_config(cfg, "finetune")
    n_traj = cfg["finetune"]["n_traj"]
    ds = storage.load_dataset(data_path)
    _train_ids(ds, data_path, "finetune")
    if not 0 <= n_traj <= len(ds.split["train"]):
        raise ConfigError(f"config 'finetune.n_traj': {n_traj} is outside 0 ... "
                          f"{len(ds.split['train'])}, the train trajectories of {data_path}")
    base = sg.Surrogate.from_checkpoint(from_path)
    _check_grid(base, from_path, (ds.grid.nx, ds.grid.ny), data_path)
    result = sg.finetune(base, ds, n_traj, tc, _log_epoch)
    return _finish_training(result, out_path, "finetune", "val_mse", _val_summary(result))


def cmd_train_prm(cfg: dict, from_path: str, data_path: str, out_path: str,
                  triplets_in: str | None, triplets_out: str | None) -> int:
    model = sg.Surrogate.from_checkpoint(from_path)
    p = cfg["prm"]
    prm_cfg = _checked("prm", rewards.PRMConfig, backbone=model.config, seed=cfg["seed"],
                       **{k: p[k] for k in _field_defaults(rewards.PRMConfig)})
    ds = storage.load_dataset(data_path)
    _check_grid(model, from_path, (ds.grid.nx, ds.grid.ny), data_path)
    if triplets_in:
        train_triplets = rewards.load_triplets(triplets_in)
        holdout = []
        if not train_triplets:
            raise ConfigError(f"{triplets_in} holds no triplets")
        _check_grid(model, from_path, train_triplets[0].current.rho.shape, triplets_in)
    else:
        train_ids = _train_ids(ds, data_path, "train-prm")
        if p["train_trajectories"]:
            train_ids = train_ids[: p["train_trajectories"]]
        holdout_ids = ds.split["val"]
        if p["holdout_trajectories"]:
            holdout_ids = holdout_ids[: p["holdout_trajectories"]]
        print(f"building triplets: K={p['k_candidates']} over "
              f"{len(train_ids)} train + {len(holdout_ids)} holdout trajectories")
        train_triplets = rewards.build_prm_triplets(
            model, ds, p["k_candidates"], cfg["seed"], indices=train_ids)
        holdout = rewards.build_prm_triplets(
            model, ds, p["k_candidates"], cfg["seed"] + 1, indices=holdout_ids)
        if triplets_out:
            rewards.save_triplets(triplets_out, train_triplets, ds.grid, ds.gamma)
            print(f"wrote {len(train_triplets)} triplets to {triplets_out}")

    def log(rec):
        print(f"epoch {rec['epoch']}: loss {rec['train_loss']:.6g} "
              f"holdout acc {rec['holdout_accuracy']:.3f} ({rec['seconds']:.1f}s)")

    result = rewards.train_prm(train_triplets, prm_cfg, model.norm,
                               holdout=holdout or None, log=log)
    # Training early-stops on the holdout, so its best accuracy is biased
    # upwards and does not estimate the accuracy on unseen triplets.
    accs = [h["holdout_accuracy"] for h in result.history
            if math.isfinite(h["holdout_accuracy"])]
    summary = (f"{len(train_triplets)} triplets, best early-stopping accuracy "
               f"{max(accs, default=math.nan):.3f}")
    return _finish_training(result, out_path, "train-prm", "holdout_accuracy", summary)


def _select_trajectories(ds: euler.Dataset, which: str, n: int) -> list:
    """The first n trajectories of a dataset split (all of them when n is 0)."""
    if which not in ds.split:
        raise ConfigError(f"unknown dataset split {which!r}")
    if n < 0:
        raise ConfigError(f"config 'ttc.n_ics' must be >= 0, got {n}")
    trajs = ds.split_trajectories(which)
    return trajs[:n] if n else trajs


def cmd_rollout(cfg: dict, surrogate_path: str, data_path: str, prm_path: str | None,
                out_dir: str) -> int:
    reward, n_steps = cfg["ttc"]["reward"], cfg["ttc"]["n_steps"]
    if reward not in ttc.REWARD_NAMES:
        raise ConfigError(f"config 'ttc.reward': unknown reward {reward!r} "
                          f"({' | '.join(ttc.REWARD_NAMES)})")
    ds = storage.load_dataset(data_path)
    trajs = _select_trajectories(ds, cfg["ttc"]["split"], cfg["ttc"]["n_ics"])
    # a step's truth (teacher forcing, the oracle, evaluate) is the next snapshot
    if trajs and not 1 <= n_steps <= len(trajs[0]) - 1:
        raise ConfigError(f"config 'ttc.n_steps': {n_steps} is outside 1 ... "
                          f"{len(trajs[0]) - 1}, the steps of the trajectories in {data_path}")
    model = sg.Surrogate.from_checkpoint(surrogate_path)
    _check_grid(model, surrogate_path, (ds.grid.nx, ds.grid.ny), data_path)
    prm = rewards.ProcessRewardModel.from_checkpoint(prm_path) if prm_path else None
    if reward == "prm" and prm is None:
        raise ConfigError("reward 'prm' needs --prm CHECKPOINT")
    if prm is not None:
        _check_grid(prm, prm_path, (model.config.height, model.config.width), surrogate_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = ttc.rollout_sweep(
        model, reward, trajs, cfg["ttc"]["b_list"], cfg["seed"], prm=prm,
        gamma=ds.gamma, n_steps=n_steps,
        teacher_forced=cfg["ttc"]["teacher_forced"],
        log=lambda m: print(m))
    index = {"config_digest": config_digest(cfg), "dataset": str(data_path),
             "dataset_digest": storage.payload_digest(data_path),
             "reward": reward, "split": cfg["ttc"]["split"],
             "n_ics": len(trajs), "records": []}
    for (ic, b), rec in records.items():
        base = out / f"{reward}_ic{ic:03d}_B{b}"
        ttc.save_rollout_record(base, rec)
        index["records"].append({"reward": reward, "ic": ic, "B": b,
                                 "base": base.name})
    storage.write_text(out / "index.json", json.dumps(index, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(records)} rollout records to {out}")
    return EXIT_OK


def _evaluate_records(cfg: dict, records_dir: str, data_path: str, out_dir: str) -> tuple:
    """Evaluate the rollouts indexed under records_dir against their truth.

    Returns (report, sweeps, truth trajectories, index documents) and
    creates out_dir.  The truth is the dataset split and IC count the
    rollouts ran on, as their indexes record them.  Indexes that disagree
    on these, or that ran on a dataset whose payload differs from
    data_path's, are a config error.
    """
    ds = storage.load_dataset(data_path)
    digest = storage.payload_digest(data_path)
    records_dir = Path(records_dir)
    sweeps: dict = {}
    meta = []
    index_files = sorted(records_dir.glob("**/index.json"))
    if not index_files:
        raise ConfigError(f"no rollout index.json found under {records_dir}")
    for idx_file in index_files:
        index = storage.read_json(idx_file)
        if not (isinstance(index, dict)
                and all(k in index for k in ("split", "n_ics", "dataset_digest"))):
            raise ConfigError(f"{idx_file} does not record the split, n_ics and "
                              f"dataset digest it ran on")
        if index["dataset_digest"] != digest:
            raise ConfigError(f"{idx_file} ran on dataset {index['dataset']} "
                              f"(payload digest {index['dataset_digest'][:16]}), "
                              f"not on --data (payload digest {digest[:16]})")
        meta.append(index)
        for entry in index["records"]:
            rec = ttc.load_rollout_record(idx_file.parent / entry["base"])
            sweeps.setdefault(entry["reward"], {})[(entry["ic"], entry["B"])] = rec
    runs = sorted({(m["split"], m["n_ics"]) for m in meta})
    if len(runs) > 1:
        raise ConfigError(f"rollout indexes under {records_dir} disagree on "
                          f"(split, n_ics): {runs}")
    (which, n_ics), = runs
    trajs = _select_trajectories(ds, which, n_ics)
    if len(trajs) < n_ics:
        raise ConfigError(f"the rollouts ran on {n_ics} {which} trajectories; "
                          f"the dataset split has {len(trajs)}")
    report = metrics.evaluate(sweeps, trajs, ds.normalization, ds.gamma,
                              dataset_label=Path(data_path).stem,
                              model_label=cfg["model"]["patch"])
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    return report, sweeps, trajs, meta


def cmd_evaluate(cfg: dict, records_dir: str, data_path: str, out_dir: str) -> int:
    report, _, _, meta = _evaluate_records(cfg, records_dir, data_path, out_dir)
    out = Path(out_dir)
    metrics.write_rows_csv(out / "metrics.csv", report.rows)
    metrics.write_summary_json(out / "summary.json", report,
                               extra={"config_digest": config_digest(cfg),
                                      "sources": [m["config_digest"] for m in meta]})
    print(f"wrote {out / 'metrics.csv'} ({len(report.rows)} rows)")
    for (reward, b), gain in sorted(report.aggregates.items()):
        print(f"aggregate_gain reward={reward} B={b}: {gain:.3f}%")
    return EXIT_OK


def cmd_report(cfg: dict, records_dir: str, data_path: str, out_dir: str) -> int:
    report, sweeps, trajs, _ = _evaluate_records(cfg, records_dir, data_path, out_dir)
    out = Path(out_dir)
    metrics.write_summary_json(out / "summary.json", report,
                               extra={"config_digest": config_digest(cfg)})
    emitted = []
    for reward in sweeps:
        series = {}
        for (rw, b), curve in sorted(report.curves.items()):
            if rw == reward:
                series[f"B={b}"] = (list(range(1, len(curve) + 1)), curve)
        svg = out / f"mse_vs_t_{reward}.svg"
        render.write_line_svg(svg, series, title=f"Rollout MSE ({reward})",
                              xlabel="timestep", ylabel="MSE", log_y=True)
        emitted.append(svg.name)
    # field renders: truth vs chosen final density of the first IC at max B
    for reward, records in sweeps.items():
        ics = sorted({i for (i, _) in records})
        bmax = max(b for (_, b) in records)
        rec = records[(ics[0], bmax)]
        truth = trajs[ics[0]]
        render.write_field_ppm(out / f"field_truth_rho_ic{ics[0]:03d}.ppm",
                               truth.snapshots[-1].rho)
        render.write_field_ppm(out / f"field_{reward}_B{bmax}_rho_ic{ics[0]:03d}.ppm",
                               rec.chosen[-1].rho)
        emitted += [f"field_truth_rho_ic{ics[0]:03d}.ppm",
                    f"field_{reward}_B{bmax}_rho_ic{ics[0]:03d}.ppm"]
    print(f"report images: {', '.join(sorted(set(emitted)))}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError, which `main` prints as
    one line and turns into EXIT_CONFIG."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _positive_ints(text: str) -> list:
    """Comma list of positive integers, e.g. '1,4,16'."""
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}") from None
    if any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"branching factors must be >= 1, got {text!r}")
    return values


def _split_fractions(text: str) -> list:
    """Three non-negative train,val,test fractions summing to 1."""
    try:
        return euler.check_split_fractions([float(x) for x in text.split(",")]).tolist()
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# Config-file lists that have a flag, checked and converted by the flag's
# parser before anything runs.
_LIST_PARSERS = {("data", "split"): _split_fractions, ("ttc", "b_list"): _positive_ints}


def _parse_list_values(doc: dict) -> None:
    for (section, key), parse in _LIST_PARSERS.items():
        if key in doc.get(section, {}):
            text = ",".join(str(v) for v in doc[section][key])
            try:
                doc[section][key] = parse(text)
            except argparse.ArgumentTypeError as exc:
                raise ConfigError(f"config key '{section}.{key}': {exc}") from None


def _names(text: str) -> list:
    """Comma list of names, e.g. 'rp,kh'; empty entries are dropped."""
    names = [f.strip() for f in text.split(",") if f.strip()]
    if not names:
        raise argparse.ArgumentTypeError(f"no names in {text!r}")
    return names


def _add_common(p):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--jobs", type=int, help="worker cap for parallel stages")


def build_parser() -> argparse.ArgumentParser:
    """The command line.  A flag that sets a config value has the value's
    dotted key as its dest (see `_apply_flags`)."""
    ap = _Parser(prog="pdettc", description="PDE surrogate test-time computing harness")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a solver dataset")
    _add_common(p)
    p.add_argument("--families", dest="data.families", type=_names,
                   help="comma list, e.g. rp,kh")
    p.add_argument("--n", dest="data.n_per_family", type=int, help="trajectories per family")
    p.add_argument("--grid", type=int, help="cells per side")
    p.add_argument("--split", dest="data.split", type=_split_fractions,
                   help="train,val,test fractions")
    p.add_argument("--gamma", dest="data.gamma", type=float)
    p.add_argument("--cfl", dest="data.cfl", type=float)
    p.add_argument("--out", dest="data.path", help="dataset path")

    p = sub.add_parser("train", help="pretrain the surrogate")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--preset", dest="model.preset", choices=["desk", "paper"])
    p.add_argument("--model", dest="model.patch", choices=list(_PATCH))
    p.add_argument("--epochs", dest="train.epochs", type=int)
    p.add_argument("--lr", dest="train.lr", type=float)
    p.add_argument("--batch", dest="train.batch_size", type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("finetune", help="finetune a pretrained surrogate")
    _add_common(p)
    p.add_argument("--from", dest="from_path", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--n-traj", dest="finetune.n_traj", type=int)
    p.add_argument("--epochs", dest="finetune.epochs", type=int)
    p.add_argument("--lr", dest="finetune.lr", type=float)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train-prm", help="build triplets and train the PRM")
    _add_common(p)
    p.add_argument("--from", dest="from_path", required=True,
                   help="surrogate checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--K", dest="prm.k_candidates", type=int, help="candidates per pair")
    p.add_argument("--alpha", dest="prm.margin", type=float, help="triplet margin")
    p.add_argument("--epochs", dest="prm.epochs", type=int)
    p.add_argument("--lr", dest="prm.lr", type=float)
    p.add_argument("--triplets-in", help="reuse a saved triplet store")
    p.add_argument("--triplets-out", help="save the built triplet store")
    p.add_argument("--out", required=True)

    p = sub.add_parser("rollout", help="greedy best-of-B rollouts on a split")
    _add_common(p)
    p.add_argument("--surrogate", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--prm", help="PRM checkpoint (for --reward prm)")
    p.add_argument("--reward", dest="ttc.reward", choices=list(ttc.REWARD_NAMES))
    p.add_argument("--B", dest="ttc.b_list", type=_positive_ints,
                   help="comma list of branching factors")
    p.add_argument("--n-ics", dest="ttc.n_ics", type=int)
    p.add_argument("--split", dest="ttc.split", choices=["train", "val", "test"])
    p.add_argument("--teacher-forced", dest="ttc.teacher_forced", action="store_true",
                   default=None)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("evaluate", help="metrics CSV + summary from records")
    _add_common(p)
    p.add_argument("--records-dir", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("report", help="render curves and field images")
    _add_common(p)
    p.add_argument("--records-dir", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True)
    return ap


def _apply_flags(cfg: dict, args: argparse.Namespace) -> None:
    """Write each flag given into the config key that is its dest; --grid
    sets both grid.nx and grid.ny."""
    for dest, value in vars(args).items():
        if value is None:
            continue
        keys = ("grid.nx", "grid.ny") if dest == "grid" else (dest,)
        for key in keys:
            if key in _CONFIG_KEYS:
                section, _, name = key.rpartition(".")
                (cfg[section] if section else cfg)[name] = value


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config)
        _apply_flags(cfg, args)
        _validate(cfg, DEFAULTS)
        _check_counts(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "gen-data":
            return cmd_gen_data(cfg)
        if args.command == "train":
            return cmd_train(cfg, args.data, args.out)
        if args.command == "finetune":
            return cmd_finetune(cfg, args.from_path, args.data, args.out)
        if args.command == "train-prm":
            return cmd_train_prm(cfg, args.from_path, args.data, args.out,
                                 args.triplets_in, args.triplets_out)
        if args.command == "rollout":
            return cmd_rollout(cfg, args.surrogate, args.data, args.prm, args.out_dir)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.records_dir, args.data, args.out_dir)
        if args.command == "report":
            return cmd_report(cfg, args.records_dir, args.data, args.out_dir)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except storage.StorageError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"input error: no such file: {exc.filename}", file=sys.stderr)
        return EXIT_CONFIG
    except (euler.SolverError, euler.InvalidInitialCondition, NonFiniteGradient,
            NonFiniteActivation) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
