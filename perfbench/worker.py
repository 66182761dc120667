"""One process of a benchmark run: a set-up, or one timed repetition.

run.py starts it, in the directory the phase works in, as

    python3 perfbench/worker.py setup WORKLOAD SEED
    python3 perfbench/worker.py timed WORKLOAD SEED TRACED

and reads ``result.json`` from that directory when it has ended.
Set-up time counts from the first line below, so it includes importing
pdettc and its dependencies.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

os.environ["OPENBLAS_NUM_THREADS"] = "1"      # must precede the numpy import
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    traced = mode == "timed" and argv[3] == "1"
    import workloads as wl
    with open("stages.log", "w") as log:
        if mode == "setup":
            t_imported = time.perf_counter()
            result = wl.build_fixture(workload, seed, log=log)
            result["seconds"] += t_imported - T0
        else:
            wl.warm_up(seed)
            result = wl.run_timed(workload, seed, traced, log=log,
                                  spans_path="spans.jsonl.gz" if traced else None)
    result["env"] = wl.environment(seed, traced)
    Path("result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
