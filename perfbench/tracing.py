"""Span tracing of the pdettc package from outside it.

`Tracer.install()` replaces public functions and methods of every pdettc
module with a timing wrapper, on the attribute each caller looks the
callable up through.  A function that another module imported by name
(``ttc`` imports ``read_container``) is wrapped in that module too, and
all its wrappers report under the defining module's name
(``storage.read_container``).  `uninstall()` puts every original back.

Each call becomes one span: id, parent id, name, argument-shape key,
start, end and self time (end - start minus the time of child spans).
Spans stay in memory; `write_spans` saves them when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import math
import os
import pkgutil
import time
from collections import Counter, defaultdict
from statistics import median

import numpy as np


def _arg_key(a):
    if isinstance(a, np.ndarray):
        return a.shape, a.dtype.str
    if isinstance(a, (bool, str)):
        return a
    rho = getattr(a, "rho", None)           # a Snapshot: key by grid shape
    if isinstance(rho, np.ndarray):
        return rho.shape, rho.dtype.str
    params = getattr(a, "params", None)     # a ParamStore: key by its size,
    if isinstance(params, dict):            # not by its wrapped n_params()
        return "params", sum(np.size(getattr(v, "value", v)) for v in params.values())
    return None


def shape_key(args, kwargs) -> tuple:
    """Shapes, dtypes, sizes and flag/mode arguments of one call, used to
    group calls."""
    keys = (_arg_key(a) for a in (*args, *kwargs.values()))
    return tuple(k for k in keys if k is not None)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Extra counters and tags for single callables: fn(args, kwargs, result)
# -> (tag or None, {counter: increment}).  The tag joins the span key.
def _forward(args, kwargs, result):
    mode = _arg(args, kwargs, 2, "mode")
    n = _arg(args, kwargs, 1, "x").shape[0]
    return None, {f"vit.VisionTransformer.forward.{mode}.samples": n}


def _greedy(args, kwargs, result):
    return f"B{_arg(args, kwargs, 3, 'cfg').n_branch}", {}


def _candidates(args, kwargs, result):
    return None, {"surrogate.Surrogate.sample_candidates.candidates": len(result)}


def _uniform(args, kwargs, result):
    return None, {"rng.RngStream.uniform.values": int(np.size(result))}


def _triplets(args, kwargs, result):
    return None, {"rewards.build_prm_triplets.records": len(result)}


def _save_dataset(args, kwargs, result):
    size = os.path.getsize(_arg(args, kwargs, 0, "path"))
    return None, {"storage.save_dataset.bytes": size}


HOOKS = {
    "vit.VisionTransformer.forward": _forward,
    "ttc.greedy_rollout": _greedy,
    "surrogate.Surrogate.sample_candidates": _candidates,
    "rng.RngStream.uniform": _uniform,
    "rewards.build_prm_triplets": _triplets,
    "storage.save_dataset": _save_dataset,
}


PACKAGE = "pdettc"


def package_modules() -> list:
    pkg = importlib.import_module(PACKAGE)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
    return mods


def public_callables():
    """Yield (owner, attribute, raw value, span name) for every wrap site.

    Functions are wrapped in every module that binds them; methods once,
    on the class that defines them.
    """
    for mod in package_modules():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            home = getattr(obj, "__module__", "") or ""
            if not home.startswith(PACKAGE):
                continue
            short = home[len(PACKAGE) + 1:] or PACKAGE
            if inspect.isfunction(obj):
                yield mod, attr, obj, f"{short}.{obj.__qualname__}"
            elif inspect.isclass(obj) and home == mod.__name__:
                for m_attr, raw in list(vars(obj).items()):
                    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    if m_attr.startswith("_") or not inspect.isfunction(fn):
                        continue
                    yield obj, m_attr, raw, f"{short}.{fn.__qualname__}"


class Tracer:
    """Wraps pdettc callables and records one span per call.

    ``only`` limits wrapping to the named callables (span names such as
    ``euler.fv_step``); by default every public callable is wrapped.
    """

    def __init__(self, only=None):
        self.only = None if only is None else frozenset(only)
        self.spans = []          # (id, parent, name, key, start, end, self_s)
        self.counts = Counter()
        self._stack = []         # [span id, seconds covered by children]
        self._next_id = 0
        self._saved = []         # (owner, attribute, original value)

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, raw, name in public_callables():
            if self.only is not None and name not in self.only:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, name))
            else:
                wrapped = self._wrap(raw, name)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn, name):
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0.0]
            self._stack.append(frame)
            result, ok = None, False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            except BaseException as exc:
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end = clock()
                self._stack.pop()
                dur = end - start
                if self._stack:
                    self._stack[-1][1] += dur
                key = shape_key(args, kwargs)
                if hook is not None and ok:
                    tag, counts = hook(args, kwargs, result)
                    if tag is not None:
                        key = key + (tag,)
                    self.counts.update(counts)
                self.spans.append((span_id, parent, name, key, start, end,
                                   dur - frame[1]))

        return wrapper

    # -- results ------------------------------------------------------------

    def stats(self) -> dict:
        """name -> [calls, inclusive seconds, self seconds]."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for _, _, name, _, start, end, self_s in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += self_s
        return dict(out)

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps([*span[:3], repr(span[3]), *span[4:]]) + "\n")


# ---------------------------------------------------------------------------
# Burst-filtered stage time


def hot_groups(spans, hot) -> dict:
    """(name, argument shapes) -> [(start, end)] of hot calls no hot call encloses."""
    hot = frozenset(hot)
    names = {s[0]: s[2] for s in spans}
    parents = {s[0]: s[1] for s in spans}

    def enclosed(span_id):
        p = parents.get(span_id, -1)
        while p != -1:
            if names.get(p) in hot:
                return True
            p = parents.get(p, -1)
        return False

    groups = defaultdict(list)
    for span_id, _, name, key, start, end, _ in spans:
        if name in hot and not enclosed(span_id):
            groups[(name, key)].append((start, end))
    return groups


def hot_summary(spans, hot, intervals: dict) -> dict:
    """What `filtered_seconds` needs of one phase, in JSON-able form.

    ``fastest`` holds the fastest call of each hot group (keys are
    ``repr((name, argument key))``); ``intervals`` maps each label of
    ``intervals`` (label -> (start, end)) to its length and, per group,
    the count and seconds of the hot calls inside it.
    """
    groups = {repr(g): calls for g, calls in hot_groups(spans, hot).items()}
    out = {"fastest": {g: min(b - a for a, b in calls) for g, calls in groups.items()},
           "intervals": {}}
    for label, (start, end) in intervals.items():
        inside = {}
        for g, calls in groups.items():
            durations = [b - a for a, b in calls if a >= start and b <= end]
            if durations:
                inside[g] = [len(durations), sum(durations)]
        out["intervals"][label] = [end - start, inside]
    return out


def pooled_fastest(summaries) -> dict:
    """Each group's fastest call over several phases' `hot_summary`."""
    out = {}
    for summary in summaries:
        for g, t in summary["fastest"].items():
            out[g] = min(t, out.get(g, t))
    return out


def filtered_seconds(summary: dict, label: str, fastest=None) -> float:
    """Time of an interval at the uncontended speed of its hot calls.

    Each hot call inside the interval counts as the fastest call of its
    group (see `hot_groups`) instead of its own duration; the rest of the
    interval counts as measured.  The fastest call is the phase's own, or
    that of ``fastest`` (see `pooled_fastest`).  Other processes on the
    host slow a run down by 40% or more for stretches of a fraction of a
    second up to ten seconds, which can cover a whole stage: then even a
    group's 10th-percentile call is slow, while its fastest call, looked
    for over the whole phase, is within a few percent of the uncontended
    time.  The calls of one group do the same work, so the fastest is the
    code's own speed.
    """
    fastest = summary["fastest"] if fastest is None else fastest
    elapsed, inside = summary["intervals"][label]
    return elapsed + sum(n * fastest[g] - total for g, (n, total) in inside.items())


def phase_times(summary: dict, scale: dict, work: float, fastest=None,
                raw: bool = False) -> dict:
    """wall_s, stage1_s, stage2_s and work_per_s of one timed phase.

    Stage times are multiplied by ``scale`` (stage -> factor), and wall_s
    holds the scaled stages; work_per_s divides ``work`` by the unscaled
    stage time.  With ``raw`` no call is filtered.
    """
    def seconds(label):
        if raw:
            return summary["intervals"][label][0]
        return filtered_seconds(summary, label, fastest)

    stage = {k: seconds(k) for k in ("stage1", "stage2")}
    scaled = {k: v * scale.get(k, 1.0) for k, v in stage.items()}
    return {"wall_s": seconds("wall") - sum(stage.values()) + sum(scaled.values()),
            "stage1_s": scaled["stage1"], "stage2_s": scaled["stage2"],
            "work_per_s": max(work, 1) / sum(stage.values())}


def _p50_ms(values) -> float:
    return 1000.0 * median(values) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer figures of one traced timed phase, by metric name."""
    st = tracer.stats()
    cn = tracer.counts

    def calls(name):
        return st.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return st.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return st.get(name, [0, 0.0, 0.0])[2]

    by_id = {s[0]: s for s in tracer.spans}
    fv_ms = defaultdict(list)
    fwd_s = Counter()
    greedy_children = defaultdict(list)
    sample_s = score_s = 0.0
    for span in tracer.spans:
        span_id, parent, name, key, start, end, _ = span
        if name == "euler.fv_step":
            fv_ms[key[0][0][0] if key else 0].append(end - start)
        elif name == "vit.VisionTransformer.forward":
            fwd_s[key[1]] += end - start
        parent_name = by_id[parent][2] if parent in by_id else ""
        if parent_name == "ttc.greedy_rollout":
            if name == "surrogate.Surrogate.sample_candidates":
                sample_s += end - start
                greedy_children[parent].append(start)
            elif name.endswith(".score"):
                score_s += end - start
    step_ms = defaultdict(list)
    for parent, starts in greedy_children.items():
        bounds = sorted(starts) + [by_id[parent][5]]
        tag = by_id[parent][3][-1]
        step_ms[tag] += [b - a for a, b in zip(bounds, bounds[1:])]

    m = {
        "euler.fv_step.calls": calls("euler.fv_step"),
        "euler.fv_step.self_s": self_s("euler.fv_step"),
        "euler.fv_step.ms.g64": _p50_ms(fv_ms[64]),
        "euler.fv_step.ms.g128": _p50_ms(fv_ms[128]),
        "euler.max_stable_dt.self_s": self_s("euler.max_stable_dt"),
        "euler.Normalization.from_trajectories.s": incl("euler.Normalization.from_trajectories"),
        "euler.conservation_drift.s": incl("euler.conservation_drift"),
        "storage.save_dataset.s": incl("storage.save_dataset"),
        "storage.save_dataset.bytes": cn["storage.save_dataset.bytes"],
        "storage.load_dataset.calls": calls("storage.load_dataset"),
        "storage.load_dataset.s": incl("storage.load_dataset"),
        "storage.save_checkpoint.s": incl("storage.save_checkpoint"),
        "storage.load_checkpoint.calls": calls("storage.load_checkpoint"),
        "storage.load_checkpoint.s": incl("storage.load_checkpoint"),
        "ttc.save_rollout_record.s": incl("ttc.save_rollout_record"),
        "ttc.load_rollout_record.s": incl("ttc.load_rollout_record"),
        "rng.RngStream.uniform.calls": calls("rng.RngStream.uniform"),
        "rng.RngStream.uniform.values": cn["rng.RngStream.uniform.values"],
        "rng.RngStream.uniform.self_s": self_s("rng.RngStream.uniform"),
        "nn.Dropout.forward.calls": calls("nn.Dropout.forward"),
        "nn.Dropout.forward.self_s": self_s("nn.Dropout.forward"),
        "nn.softmax.calls": calls("nn.softmax"),
        "nn.softmax.self_s": self_s("nn.softmax"),
        "nn.Gelu.forward.self_s": self_s("nn.Gelu.forward"),
        "nn.LayerNorm.forward.self_s": self_s("nn.LayerNorm.forward"),
        "nn.Affine.forward.calls": calls("nn.Affine.forward"),
        "nn.Affine.forward.self_s": self_s("nn.Affine.forward"),
        "nn.MultiHeadSelfAttention.forward.self_s": self_s("nn.MultiHeadSelfAttention.forward"),
        "nn.Mlp.forward.self_s": self_s("nn.Mlp.forward"),
        "nn.PatchEmbed.forward.self_s": self_s("nn.PatchEmbed.forward"),
        "nn.PatchDecode.forward.self_s": self_s("nn.PatchDecode.forward"),
    }
    for mode in ("train", "stochastic_infer", "deterministic_infer"):
        m[f"vit.VisionTransformer.forward.{mode}.samples"] = \
            cn[f"vit.VisionTransformer.forward.{mode}.samples"]
        m[f"vit.VisionTransformer.forward.{mode}.s"] = float(fwd_s[mode])
    m.update({
        "vit.VisionTransformer.backward.s": incl("vit.VisionTransformer.backward"),
        "nn.AdamW.step.s": incl("nn.AdamW.step"),
        "surrogate.Surrogate.sample_candidates.candidates":
            cn["surrogate.Surrogate.sample_candidates.candidates"],
        "surrogate.Surrogate.sample_candidates.s": incl("surrogate.Surrogate.sample_candidates"),
        "rewards.ProcessRewardModel.score.calls": calls("rewards.ProcessRewardModel.score"),
        "rewards.ProcessRewardModel.score.s": incl("rewards.ProcessRewardModel.score"),
        "rewards.MassReward.score.calls": calls("rewards.MassReward.score"),
        "rewards.MassReward.score.s": incl("rewards.MassReward.score"),
        "rewards.build_prm_triplets.records": cn["rewards.build_prm_triplets.records"],
        "rewards.build_prm_triplets.s": incl("rewards.build_prm_triplets"),
        "rewards.train_prm.s": incl("rewards.train_prm"),
        "rewards.ranking_accuracy.s": incl("rewards.ranking_accuracy"),
        "rewards.undefined.count": sum(v for k, v in cn.items()
                                       if k.endswith(".score.raised.UndefinedReward")),
        "ttc.greedy_rollout.calls": calls("ttc.greedy_rollout"),
        "ttc.greedy_rollout.s": incl("ttc.greedy_rollout"),
        "ttc.sample_s": sample_s,
        "ttc.score_s": score_s,
        "ttc.step_ms.B1.p50": _p50_ms(step_ms["B1"]),
        "ttc.step_ms.B16.p50": _p50_ms(step_ms["B16"]),
        "metrics.evaluate.s": incl("metrics.evaluate"),
        "metrics.conservation_trace.s": incl("metrics.conservation_trace"),
        "render.s": incl("render.write_field_ppm") + incl("render.write_line_svg"),
    })
    for k, v in m.items():
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"per-layer metric {k} is not finite")
    return m
