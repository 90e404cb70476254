"""cpcshuffle benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a fresh Python
process (`workloads.py`) against the checkout's own `src/`, with
CPC_THREADS unset and one BLAS thread, so peak memory belongs to that
workload alone.  Set-up time is sampled in further processes that only
build the inputs; the median is reported.  Reported times are scaled to
the speed of a reference kernel timed beside them (see speed.py); the
raw times are printed too.

With --trace 0 the end-to-end metrics are printed, with --trace 1 the
per-layer metrics of a traced run.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is not 0,
and no result is printed, when the package or a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(HERE, "out")

WORKLOADS = ("shuffle_single_shot", "shuffle_time_division", "analytics_figures", "argmin_grid")
SETUP_PROBES = 7  # set-up-only processes started after the measured one
WORKLOAD_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 20

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "checked_bytes_per_s": "bytes/s",
    "ok_ratio": "1",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio") or name == "channel.max_condition":
        return "1"
    return "count"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CPC_THREADS", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], timeout: float) -> dict:
    """Run workloads.py with `argv`; return the JSON of its last line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "workloads.py"), *argv],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_sample(argv: list[str]) -> tuple[float, float]:
    """(raw, scaled) time from starting a set-up-only process to the moment
    its first operation would start, with the reference kernel timed just
    before and after."""
    before = speed.time_kernel(20)
    started = time.monotonic()
    raw = run_child(argv + ["--setup-only"], PROBE_TIMEOUT_S)["ready_at"] - started
    after = speed.time_kernel(20)
    return raw, raw * speed.scale([before, after])


def ratio(num: int, den: int) -> str:
    return f"{num}/{den} = {num / den:.4f}" if den else "n/a"


def end_to_end(res: dict, setups: list[float]) -> dict[str, float]:
    wall = statistics.median(res["scaled_walls"])
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "checked_bytes_per_s": res["checked_bytes"] / res["rounds"] / wall,
        "ok_ratio": (res["attempted"] - res["failed"]) / res["attempted"],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(res: dict) -> dict[str, float]:
    metrics = dict(res["layers"])
    metrics["channel.dof_met_ratio"] = res["dof_met"] / res["verifies"] if res["verifies"] else 0.0
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description="cpcshuffle benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "cpcshuffle", "__init__.py")):
        sys.exit(f"no cpcshuffle package under {SRC}: run from the root of a checkout")

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    argv = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans = os.path.join(SPANS_DIR, f"{args.workload}-seed{args.seed}.tsv")
        argv += ["--spans-out", spans]
    res = run_child(argv, WORKLOAD_TIMEOUT_S)

    raw_wall = statistics.median(res["walls"])
    print(f"{args.workload} seed {args.seed}: {res['rounds']} round(s), "
          f"{res['attempted']} operation(s)")
    print(f"  raw wall_s         {raw_wall:.4f} s")
    print(f"  failed_ratio       {ratio(res['failed'], res['attempted'])}")
    print(f"  dof_met_ratio      {ratio(res['dof_met'], res['verifies'])}")
    for note in res["notes"]:
        print(f"  failed: {note}")

    if args.trace:
        metrics = per_layer(res)
        units = {name: layer_unit(name) for name in metrics}
        print(f"  spans of the first traced round: {os.path.relpath(spans, ROOT)}")
    else:
        setups = [setup_sample(common) for _ in range(SETUP_PROBES)]
        metrics = end_to_end(res, [scaled for _raw, scaled in setups])
        units = END_TO_END_UNITS
        print(f"  raw setup_s        {statistics.median(raw for raw, _ in setups):.4f} s")
        if res["verifies"]:
            iv_rate = res["checked_bytes"] / res["rounds"] / raw_wall
            print(f"  raw iv_bytes_per_s {iv_rate:.4f} bytes/s")
    for name, value in metrics.items():
        print(f"  {name:<30} {value:.6g} {units[name]}")

    print(json.dumps({
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
