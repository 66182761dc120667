"""The benchmark's workloads: CLI stages, output checks and digests.

Each workload has a fixture, built during set-up and not timed, and a
timed phase of pdettc CLI stages.  Every stage runs in-process through
``pdettc.cli.main`` and gets the workload seed as ``--seed``.  Paths in
the argv are fixed and relative (a stage runs in its own directory and
finds the fixture under ``../setup0``), so no output depends on where
the checkout lives.

All workloads use the 64x64 desk model (``vit5``, 169 tokens); tests
pass a smaller ``grid``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pdettc import cli, euler, rewards, storage, surrogate, ttc
from pdettc.rng import RngStream
from pdettc.vit import MODE_STOCHASTIC, VisionTransformer

import tracing as tr

WORKLOADS = ("solve", "train", "rollout")
GRID = 64
FIXTURE = "../setup0"
SOLVE_FAMILIES = "rp,crp,gauss,kh,rpui,rm"
B_LIST = "1,4,16"
# Solver steps the solve workload's times are scaled to.  How many steps
# a trajectory takes depends on the wave speeds of its seeded initial
# condition (the 128x128 rp run varies by +-15% between seeds), so solve
# times are reported per unit of solver work, as if the run had taken
# this many reference steps (see `reference_steps`) on each grid.
SOLVE_REF_STEPS = {"stage1": 3000.0, "stage2": 1000.0}
# CFL number of the benchmark's own step estimate.  It equals the CLI's
# default, but is held here so that a change to the solver's time-step
# policy moves the solve times rather than the normaliser.
CFL_REF = 0.4
# Callables whose calls are timed in every run, for `tracing.filtered_seconds`.
HOT = ("euler.fv_step", "nn.Block.forward", "nn.Block.backward",
       "nn.PatchEmbed.forward", "nn.PatchEmbed.backward",
       "nn.PatchDecode.forward", "nn.PatchDecode.backward", "nn.AdamW.step")
# Wrapped in every run only for their counters: train's work is the
# train-mode samples the ViT forwarded.
COUNTED = ("vit.VisionTransformer.forward",)
EPS32 = float(np.finfo(np.float32).eps)


def fixture_argv(workload: str, seed: int, grid: int = GRID) -> list:
    """CLI calls that build the workload's fixture in the current directory."""
    s = ["--seed", str(seed)]
    g = ["--grid", str(grid), "--jobs", "1"]
    if workload == "solve":
        return []
    if workload == "train":
        return [["gen-data", *s, "--families", "rp,kh", "--n", "2", *g,
                 "--split", "0.75,0.25,0", "--out", "data.pdt"]]
    if workload == "rollout":
        return [
            ["gen-data", *s, "--families", "rp", "--n", "2", *g,
             "--split", "0.5,0,0.5", "--out", "data.pdt"],
            ["train", *s, "--data", "data.pdt", "--epochs", "1", "--out", "surrogate.ckpt"],
            ["train-prm", *s, "--from", "surrogate.ckpt", "--data", "data.pdt",
             "--K", "4", "--epochs", "1", "--out", "prm.ckpt"],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def timed_stages(workload: str, seed: int, grid: int = GRID) -> list:
    """(stage label or None, argv) for each CLI call of the timed phase."""
    s = ["--seed", str(seed)]
    data = ["--data", f"{FIXTURE}/data.pdt"]
    if workload == "solve":
        return [
            ("stage1", ["gen-data", *s, "--families", SOLVE_FAMILIES, "--n", "1",
                        "--grid", str(grid), "--jobs", "1", "--out", "solve_g1.pdt"]),
            ("stage2", ["gen-data", *s, "--families", "rp", "--n", "1",
                        "--grid", str(2 * grid), "--jobs", "1", "--out", "solve_g2.pdt"]),
        ]
    if workload == "train":
        return [
            ("stage1", ["train", *s, *data, "--epochs", "2", "--batch", "32",
                        "--out", "surrogate.ckpt"]),
            ("stage2", ["train-prm", *s, "--config", "prm.json", "--from", "surrogate.ckpt",
                        *data, "--K", "8", "--epochs", "1", "--out", "prm.ckpt"]),
        ]
    if workload == "rollout":
        model = ["--surrogate", f"{FIXTURE}/surrogate.ckpt", *data, "--B", B_LIST]
        return [
            ("stage1", ["rollout", *s, *model, "--reward", "arm_mass",
                        "--out-dir", "records/arm_mass"]),
            ("stage2", ["rollout", *s, *model, "--reward", "prm",
                        "--prm", f"{FIXTURE}/prm.ckpt", "--out-dir", "records/prm"]),
            (None, ["evaluate", *s, "--records-dir", "records", *data, "--out-dir", "eval"]),
            (None, ["report", *s, "--records-dir", "records", *data, "--out-dir", "report"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# The PRM stage ranks candidates of one train trajectory; its holdout is
# the whole val split.
TRAIN_PRM_CONFIG = {"prm": {"train_trajectories": 1}}


@dataclass
class Tally:
    """CLI calls and output checks attempted, and which failed."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{what}: {detail}".strip())

    def cli(self, argv: list, log) -> None:
        """Run one CLI call in-process; a raised exception counts as failed."""
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                rc = cli.main(argv)
        except (Exception, SystemExit) as exc:    # the program's own failures
            log.write(traceback.format_exc())
            self.record(argv[0], False, f"{type(exc).__name__}: {exc}")
            return
        self.record(argv[0], rc == 0, f"exit code {rc}")

    def check(self, what: str, fn) -> None:
        """Run one output check; it passes when fn returns without raising."""
        try:
            fn()
        except Exception as exc:          # any failed check is reported, not fatal
            self.record(what, False, f"{type(exc).__name__}: {exc}")
            return
        self.record(what, True)


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def payload_digest(path) -> str:
    """Digest of a container's payload; its header embeds the output path."""
    _, payload = storage.read_container(path)
    return hashlib.sha256(np.ascontiguousarray(payload).tobytes()).hexdigest()


def warm_up(seed: int, grid: int = GRID) -> None:
    """One fv_step and one stochastic desk-ViT forward, before any timing."""
    g = euler.GridSpec(grid, grid)
    u = euler.make_initial_condition(euler.sample_ic("rp", seed), g)
    cfl = cli.DEFAULTS["data"]["cfl"]
    euler.fv_step(u, euler.max_stable_dt(u, g, euler.GAMMA_DEFAULT, cfl), grid=g)
    mc = cli.model_config_for(cli.DEFAULTS, g)
    x = np.zeros((1, mc.in_channels, grid, grid))
    VisionTransformer(mc, RngStream(seed)).forward(x, MODE_STOCHASTIC, RngStream(seed, 1))


# ---------------------------------------------------------------------------
# Phases


def build_fixture(workload: str, seed: int, grid: int = GRID, log=None) -> dict:
    """Set-up in the current directory: warm-up plus the fixture's CLI calls."""
    t0 = time.perf_counter()
    log = log or io.StringIO()
    tally = Tally()
    warm_up(seed, grid)
    for argv in fixture_argv(workload, seed, grid):
        tally.cli(argv, log)
    seconds = time.perf_counter() - t0
    digests = {}
    if workload != "solve":
        tally.check("fixture digests", lambda: digests.update(fixture_digests(workload)))
    return {"seconds": seconds, "digests": digests, "attempted": tally.attempted,
            "failed": tally.failed, "failures": tally.failures}


def fixture_digests(workload: str) -> dict:
    out = {"fixture.dataset": payload_digest("data.pdt")}
    if workload == "rollout":
        out["fixture.surrogate"] = sha256_file("surrogate.ckpt")
        out["fixture.prm"] = sha256_file("prm.ckpt")
    return out


def run_timed(workload: str, seed: int, traced: bool, grid: int = GRID,
              log=None, spans_path=None) -> dict:
    """The timed phase in the current directory, then its checks.

    The fixture must be in ``../setup0``.  With ``traced`` every public
    pdettc callable is wrapped; otherwise only the `HOT` ones are, for
    the burst filter.
    """
    log = log or io.StringIO()
    tally = Tally()
    if workload == "train":
        Path("prm.json").write_text(json.dumps(TRAIN_PRM_CONFIG))
    tracer = tr.Tracer(only=None if traced else HOT + COUNTED)
    bounds = {}
    with tracer:
        t_start = time.perf_counter()
        for label, argv in timed_stages(workload, seed, grid):
            t0 = time.perf_counter()
            tally.cli(argv, log)
            if label:
                bounds[label] = (t0, time.perf_counter())
        t_end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = CHECKS[workload](tally)
    if workload == "train":
        out.work = tracer.counts["vit.VisionTransformer.forward.train.samples"]
    summary = tr.hot_summary(tracer.spans, HOT, {**bounds, "wall": (t_start, t_end)})
    raw = tr.phase_times(summary, out.scale, out.work, raw=True)
    out.extra.update({f"raw_{k}": raw[k] for k in ("wall_s", "stage1_s", "stage2_s")})
    result = {
        **tr.phase_times(summary, out.scale, out.work),
        "peak_rss_mb": peak_rss_mb,
        "elapsed_s": t_end - t_start,
        "hot": summary, "scale": out.scale, "work": out.work,
        "attempted": tally.attempted, "failed": tally.failed, "failures": tally.failures,
        "digests": out.digests, "extra": out.extra,
    }
    if traced:
        result["layers"] = tr.layer_metrics(tracer)
        result["layers"]["ttc.fallback_steps.count"] = out.extra.get("fallback_steps", 0)
        if spans_path:
            tracer.write_spans(spans_path)
    return result


# ---------------------------------------------------------------------------
# Output checks and digests, per workload


@dataclass
class Outputs:
    """What the checks of a timed phase found."""

    digests: dict
    work: float = 0                              # work done by stage1 + stage2
    scale: dict = field(default_factory=dict)    # stage -> factor to reference work
    extra: dict = field(default_factory=dict)    # figures reported but not bounded


def reference_steps(ds) -> float:
    """Solver steps the stored solution implies at `CFL_REF`.

    The benchmark's own copy of the CFL bound, dt = CFL_REF / (sx/dx +
    sy/dy) with s the largest |v| + sqrt(gamma p / rho), integrated
    between snapshots.  At the CLI's default CFL it tracks the fv_step
    calls to within a few percent.  It depends on the solution only, so a
    solver that takes more or fewer steps for the same solution shows in
    the solve times.
    """
    steps = 0.0
    dx, dy = ds.grid.lx / ds.grid.nx, ds.grid.ly / ds.grid.ny
    for t in ds.trajectories:
        inv = []
        for s in t.snapshots:
            rho, vx, vy, p = np.asarray(s.fields(), dtype=np.float64)
            c = np.sqrt(ds.gamma * p / rho)
            inv.append((np.max(np.abs(vx) + c) / dx + np.max(np.abs(vy) + c) / dy) / CFL_REF)
        dt_out = float(t.times[1] - t.times[0])
        steps += sum(0.5 * dt_out * (a + b) for a, b in zip(inv, inv[1:]))
    return steps


def _check_dataset(tally: Tally, path: str, digests: dict) -> tuple:
    """Finite, physical and conserved to float32 round-off; returns
    `reference_steps` and the number of cells."""
    ds = storage.load_dataset(path)
    digests[f"dataset.{Path(path).stem}"] = payload_digest(path)
    fields = np.stack([np.stack([s.fields() for s in t.snapshots])
                       for t in ds.trajectories]).astype(np.float64)

    def physical():
        if not np.all(np.isfinite(fields)):
            raise ValueError("non-finite values")
        if fields[:, :, 0].min() <= 0.0 or fields[:, :, 3].min() <= 0.0:
            raise ValueError("non-positive density or pressure")

    def conserved():
        # Totals of stored float32 fields may differ from the solver's
        # float64 totals by a few float32 ulps per cell.
        rho, vx, vy, p = (fields[:, :, i] for i in range(4))
        dens = np.stack([rho, rho * vx, rho * vy,
                         p / (ds.gamma - 1.0) + 0.5 * rho * (vx * vx + vy * vy)])
        total = dens.sum(axis=(-2, -1))                  # (quantity, traj, time)
        scale = np.abs(dens).sum(axis=(-2, -1)).max(axis=-1, keepdims=True)
        drift = np.abs(total - total[..., :1])
        if np.any(drift > 16 * EPS32 * scale):
            worst = float((drift / scale).max())
            raise ValueError(f"relative drift {worst:.3e} exceeds float32 round-off")

    tally.check(f"{path} physical", physical)
    tally.check(f"{path} conserved", conserved)
    return reference_steps(ds), ds.grid.nx * ds.grid.ny


def _check_solve(tally: Tally) -> Outputs:
    """Solve's work is cell updates: reference steps times cells."""
    out = Outputs(digests={})
    for label, path in (("stage1", "solve_g1.pdt"), ("stage2", "solve_g2.pdt")):
        try:
            steps, cells = _check_dataset(tally, path, out.digests)
        except Exception as exc:          # unreadable output: one failed check
            tally.record(f"{path} load", False, f"{type(exc).__name__}: {exc}")
            continue
        out.scale[label] = SOLVE_REF_STEPS[label] / steps
        out.work += steps * cells
        out.extra[f"ref_steps.{label}"] = steps
    return out


def _check_train(tally: Tally) -> Outputs:
    """Train's work, set by the caller, is the train-mode ViT samples."""
    out = Outputs(digests={})

    def val_mse():
        with open("surrogate.ckpt.loss.csv", newline="") as fh:
            best = min(float(row["val_mse"]) for row in csv.DictReader(fh))
        if not math.isfinite(best):
            raise ValueError(f"best val MSE is {best}")
        out.extra["val_mse"] = best

    tally.check("val_mse finite", val_mse)
    tally.check("surrogate reloads", lambda: surrogate.Surrogate.from_checkpoint("surrogate.ckpt"))
    tally.check("prm reloads", lambda: rewards.ProcessRewardModel.from_checkpoint("prm.ckpt"))
    for name in ("surrogate.ckpt", "prm.ckpt"):
        with contextlib.suppress(OSError):
            out.digests[name] = sha256_file(name)
    return out


def _check_rollout(tally: Tally) -> Outputs:
    """Rollout's work is the candidates sampled and scored."""
    out = Outputs(digests={})
    selected, first = [], {}
    fallbacks = 0
    for index_path in sorted(Path("records").glob("*/index.json")):
        index = json.loads(index_path.read_text())
        for entry in index["records"]:
            what = f"{entry['reward']} ic{entry['ic']} B{entry['B']}"
            try:
                rec = ttc.load_rollout_record(index_path.parent / entry["base"])
            except Exception as exc:      # unreadable record: one failed check
                tally.record(f"{what} load", False, f"{type(exc).__name__}: {exc}")
                continue
            tally.check(f"{what} argmax", rec.verify_argmax)
            selected.append([entry["reward"], entry["ic"], entry["B"], rec.selected])
            first.setdefault((entry["reward"], entry["ic"]), []).append(rec.rewards[0][0])
            out.work += sum(len(r) for r in rec.rewards)
            fallbacks += len(rec.fallback_steps)
    for (reward, ic), values in sorted(first.items()):
        def prefix(values=values):
            if len(set(values)) != 1:
                raise ValueError(f"first candidate reward differs across B: {values}")
        tally.check(f"{reward} ic{ic} candidate prefix", prefix)
    out.digests["selected"] = hashlib.sha256(json.dumps(sorted(selected)).encode()).hexdigest()

    def final_mse():
        summary = json.loads(Path("eval/summary.json").read_text())
        b_max = max(B_LIST.split(","), key=int)
        value = float(summary["mean_final_mse"]["prm"][b_max])
        if not math.isfinite(value):
            raise ValueError(f"final MSE is {value}")
        out.extra["final_mse"] = value
        out.digests["summary.json"] = sha256_file("eval/summary.json")

    tally.check("final_mse finite", final_mse)
    out.extra.update(candidates=out.work, fallback_steps=fallbacks)
    return out


CHECKS = {"solve": _check_solve, "train": _check_train, "rollout": _check_rollout}


def environment(seed: int, traced: bool) -> dict:
    import platform
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu": cpu, "nproc": os.cpu_count(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "seed": seed, "traced": traced}
