"""Run one benchmark workload, or compare two sets of results.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --compare BASE_DIR NEW_DIR

A run sets the workload up at least twice, and until three seconds of
set-up are measured, each time in a fresh process (import, warm-up and
fixture build; the median is ``setup_s``), then repeats the timed phase,
each repetition in a fresh process so that its peak RSS is its own, until
``--seconds`` of it have been measured and `MIN_REPS` untraced
repetitions made.  The burst filter of the untraced repetitions uses
each hot group's fastest call over all of them.  With ``--trace 1`` the
repetitions alternate untraced and traced; the traced ones give the
per-layer metrics.

The last line of standard output is the result as one JSON object.  The
full record (environment, digests, every repetition) is written to
``.perfbench/results/<workload>-seed<seed>-trace<0|1>.json``; compare
mode reads two directories of such records.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve", "train", "rollout")
N_SETUPS = 2                # at least this many set-ups,
SETUP_SECONDS = 3.0         # and more until this much set-up time is measured
# Untraced repetitions a run makes at least.  Train's batch-32 groups have
# only eight calls per repetition (four blocks, two epochs), too few for
# the burst filter to find an uncontended one, so train pools the
# groups' fastest calls over two repetitions, each in its own process.
MIN_REPS = {"solve": 1, "train": 2, "rollout": 1}
DEADLINE_S = 165.0          # a run must end within 180 s


def _spawn(args: list, cwd: Path, timeout: float) -> tuple:
    """Run worker.py in cwd; returns (result dict or None, error text)."""
    cwd.mkdir(parents=True, exist_ok=True)
    with open(cwd / "worker.log", "w") as log:
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                                  cwd=cwd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            return None, f"worker {args[0]} timed out"
    result_path = cwd / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        tail = (cwd / "worker.log").read_text().strip().splitlines()[-1:] or [""]
        return None, f"worker {args[0]} exited {proc.returncode}: {tail[0]}"
    return json.loads(result_path.read_text()), ""


def _same(digests: list) -> bool:
    return all(d == digests[0] for d in digests)


def run(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    t_begin = time.perf_counter()
    work = ROOT / ".perfbench" / "work" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    attempted = failed = 0
    failures = []

    def tally(ok: bool, what: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            failures.append(what)

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - t_begin)

    try:
        setups = []
        for i in itertools.count():
            if i >= N_SETUPS and (not setups
                                  or sum(s["seconds"] for s in setups) >= SETUP_SECONDS):
                break
            res, err = _spawn(["setup", workload, str(seed)], work / f"setup{i}", remaining())
            if res is None:
                tally(False, err)
                if i >= N_SETUPS:
                    break
                continue
            attempted += res["attempted"]
            failed += res["failed"]
            failures += res["failures"]
            setups.append(res)
        if len(setups) > 1:
            tally(_same([s["digests"] for s in setups]), "fixture digests differ between set-ups")

        reps, measured, last = [], 0.0, 0.0
        while True:
            traced = trace and len(reps) % 2 == 1
            t0 = time.perf_counter()
            res, err = _spawn(["timed", workload, str(seed), str(int(traced))],
                              work / f"rep{len(reps)}", remaining())
            last = time.perf_counter() - t0
            if res is None:
                tally(False, err)
                break
            attempted += res["attempted"]
            failed += res["failed"]
            failures += res["failures"]
            res["traced"] = traced
            reps.append(res)
            measured += res["elapsed_s"]
            n_plain = sum(not r["traced"] for r in reps)
            if (measured >= seconds and n_plain >= MIN_REPS[workload]
                    and (not trace or n_plain < len(reps))):
                break
            if last > remaining():
                break
        if len(reps) > 1:
            tally(_same([r["digests"] for r in reps]),
                  "output digests differ between repetitions")
        results = ROOT / ".perfbench" / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{workload}-seed{seed}-trace{int(trace)}"
        for i, r in enumerate(reps):
            spans = work / f"rep{i}" / "spans.jsonl.gz"
            if spans.exists():
                shutil.move(str(spans), results / f"{stem}.spans{i}.jsonl.gz")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    fastest = tracing.pooled_fastest([r["hot"] for r in plain])
    for r in plain:
        r.update(tracing.phase_times(r["hot"], r["scale"], r["work"], fastest))
    values = {"setup_s": _median([s["seconds"] for s in setups]),
              "pass_frac": 1.0 - failed / max(attempted, 1)}
    for name in ("wall_s", "stage1_s", "stage2_s", "work_per_s", "peak_rss_mb"):
        values[name] = _median([r[name] for r in plain])
    extra = {k: _median([r["extra"].get(k) for r in plain])
             for k in sorted({k for r in plain for k in r["extra"]})}
    if trace:
        for name in (m["name"] for m in spec["per_layer"]):
            values[name] = _median([r["layers"].get(name) for r in traced_reps])
        values["trace.overhead_s"] = (_median([r["wall_s"] for r in traced_reps])
                                      - values["wall_s"])
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    record = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "fail_frac": failed / max(attempted, 1), "failures": failures,
        "metrics": {m["name"]: {"value": _number(values.get(m["name"])), "unit": m["unit"]}
                    for m in wanted},
        "extra": {k: _number(v) for k, v in extra.items()},
        "env": (reps or setups or [{}])[-1].get("env"),
        "digests": {**(setups[0]["digests"] if setups else {}),
                    **(reps[0]["digests"] if reps else {})},
        "setups": [s["seconds"] for s in setups],
        "reps": [{k: v for k, v in r.items() if k not in ("env", "digests", "extra", "hot")}
                 for r in reps],
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return median(values) if values else math.nan


def _number(v):
    return v if isinstance(v, (int, float)) and math.isfinite(v) else None


def _print_run(record: dict) -> None:
    env = record["env"] or {}
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in record["metrics"].items():
        print(f"  {name:<48} {m['value']!s:>22} {m['unit']}")
    for name, value in record["extra"].items():
        print(f"  {name:<48} {value!s:>22} (reported, not bounded)")
    print(f"  fail_frac {record['fail_frac']:.4f} "
          f"({record['failed']} of {record['attempted']} CLI calls and checks failed)")
    for what in record["failures"]:
        print(f"  FAILED {what}")
    for name, digest in sorted(record["digests"].items()):
        print(f"  digest {name} {digest}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))


# ---------------------------------------------------------------------------
# Compare mode


def _load_records(directory: Path) -> dict:
    """{(workload, metric): [values]} over every record in a directory."""
    out: dict = {}
    for path in sorted(directory.glob("*-seed*-trace*.json")):
        rec = json.loads(path.read_text())
        values = {name: m["value"] for name, m in rec["metrics"].items()}
        values.update(rec["extra"])
        for name, value in values.items():
            if value is not None:
                out.setdefault((rec["workload"], name), []).append(value)
    return out


def _quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def compare(base_dir: Path, new_dir: Path, spec: dict) -> None:
    """Print both medians and quartiles and the ratio, per workload and metric.

    The unfiltered times (``raw_wall_s``, ``raw_stage1_s``, ``raw_stage2_s``)
    are printed too, and a bounded time whose raw median worsens by more
    than the bound is flagged even when its burst-filtered median does not.
    """
    base, new = _load_records(base_dir), _load_records(new_dir)
    extras = sorted({name for _, name in base} - {m["name"] for m in
                                                  spec["end_to_end"] + spec["per_layer"]})
    metrics = spec["end_to_end"] + spec["per_layer"] + [{"name": n} for n in extras]
    print(f"{'workload':<8} {'metric':<48} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'new/base':>9}  verdict")
    for workload in WORKLOADS:
        for m in metrics:
            b, n = base.get((workload, m["name"])), new.get((workload, m["name"]))
            if not b or not n:
                continue
            bq, nq = _quartiles(b), _quartiles(n)
            ratio = nq[1] / bq[1] if bq[1] else math.nan
            verdict = ""
            bound = m.get("bound")
            if bound is not None:
                lower = m["better"] == "lower"
                spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else math.inf for q in (bq, nq))
                worse = (ratio - 1.0) if lower else (1.0 - ratio)
                all_better = (max(n) < min(b)) if lower else (min(n) > max(b))
                if spread > bound:
                    verdict = "better in every run" if all_better else \
                        f"unresolved (spread {spread:.3f} > bound {bound})"
                elif worse > bound:
                    verdict = f"WORSE by {worse:.3f} > bound {bound}"
                else:
                    verdict = f"within bound {bound}" if worse >= 0 else "better"
                raw_b, raw_n = base.get((workload, f"raw_{m['name']}")), new.get(
                    (workload, f"raw_{m['name']}"))
                if raw_b and raw_n and not verdict.startswith("WORSE"):
                    raw_ratio = median(raw_n) / median(raw_b)
                    raw_worse = (raw_ratio - 1.0) if lower else (1.0 - raw_ratio)
                    if raw_worse > bound:
                        verdict += (f"; raw WORSE by {raw_worse:.3f} > bound {bound}: "
                                    "the burst filter may hide a slowdown")
            print(f"{workload:<8} {m['name']:<48} "
                  f"{bq[1]:>12.6g} [{bq[0]:.6g}, {bq[2]:.6g}] ({len(b)}) "
                  f"{nq[1]:>12.6g} [{nq[0]:.6g}, {nq[2]:.6g}] ({len(n)}) "
                  f"{ratio:>9.4f}  {verdict}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("BASE_DIR", "NEW_DIR"))
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pdettc" / "cli.py").is_file():
        print(f"pdettc sources not found under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        compare(Path(args.compare[0]), Path(args.compare[1]), spec)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    _print_run(run(args.workload, args.seed, args.seconds, bool(args.trace), spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
