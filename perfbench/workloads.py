"""One cpcshuffle benchmark workload, run in a fresh process.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/workloads.py --workload NAME --seed N --setup-only

`run.py` starts this script with PYTHONPATH set to the checkout's `src`,
one BLAS thread and CPC_THREADS unset.  The script builds the workload's
inputs from the seed, runs timed rounds until `--seconds` would be
exceeded (at least one), checks every output, and prints one JSON line
of measurements for `run.py` to turn into metrics.  With `--trace 1` it
alternates an untraced and a traced round on the same seed, so the
difference of their walls is the tracing overhead.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

# cpcshuffle resolves through PYTHONPATH, which run.py sets to the checkout's src
from cpcshuffle import channel, cli, codec, model, ndt, optimize, placement
from speed import SpeedSampler
from tracer import Tracer
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
MAX_RESIDUAL = 1e-9
MAX_CONDITION = 1e8
SWEEP_PRESETS = ("fig2", "fig3", "fig4", "fig5")
CROSS_VALIDATE_K = 40


@dataclass
class Outcome:
    """Verdict on one operation's output."""

    ok: bool
    wrong: bool = False  # produced an output, and the output is wrong
    checked_bytes: int = 0  # output bytes compared byte-exactly
    dof_met: bool | None = None  # verifies only: measured DoF == claimed
    note: str = ""


class Op(NamedTuple):
    """A callable timed as a unit, and the check of its result."""

    run: Callable[[], object]
    check: Callable[[object], Outcome]
    verify: bool  # counts toward the DoF ratio, also when `run` raises


@dataclass(frozen=True)
class Instance:
    """A verify instance with what its output is checked against."""

    K: int
    r: int
    K_r: int
    t: int
    params: model.SystemParams
    config: model.ShuffleConfig
    claimed_dof: str
    iv_bytes: int  # required IV bytes reassembled over all nodes

    @classmethod
    def build(cls, K: int, r: int, K_r: int, t: int) -> "Instance":
        N = math.comb(K, r)
        probe = model.validate_config(model.SystemParams(K=K, N=N, Q=K, r=r, B=8), K_r, t)
        B = channel.simulation_bits(probe, 8)
        params = model.SystemParams(K=K, N=N, Q=K, r=r, B=B)
        config = model.validate_config(params, K_r, t)
        claimed = ndt.delivery_dof(config.s, t, config.K_t, K_r)
        iv_bytes = K * placement.required_iv_count(params) * (B // 8)
        return cls(K, r, K_r, t, params, config, str(claimed), iv_bytes)


def check_verify(summary: dict, inst: Instance) -> Outcome:
    good = (
        summary["ok"] is True
        and summary["failures"] == []
        and summary["partitions"] == math.comb(inst.K, inst.K_r)
        and summary["max_residual"] < MAX_RESIDUAL
        and summary["max_condition"] < MAX_CONDITION
    )
    if not good:
        return Outcome(False, wrong=True, dof_met=False, note=f"bad verify report {summary}")
    return Outcome(True, checked_bytes=inst.iv_bytes,
                   dof_met=summary["measured_dof"] == inst.claimed_dof)


def check_digest(data: bytes, ref: dict, label: str) -> Outcome:
    if len(data) == ref["bytes"] and hashlib.sha256(data).hexdigest() == ref["sha256"]:
        return Outcome(True, checked_bytes=len(data))
    return Outcome(False, wrong=True, note=f"{label} differs from the reference")


def captured(fn: Callable[[], int]) -> tuple[int, str, str]:
    """Run `fn`, returning (exit code, stdout text, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = fn()
    return rc, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------- workloads
#
# Each workload maps the round seed to the round's operations.  Functions
# are looked up on their modules at call time, so traced rounds go
# through the tracer's wrappers.

def shuffle(K: int, r: int, K_r: int, t: int):
    inst = Instance.build(K, r, K_r, t)

    def round_ops(seed: int) -> list[Op]:
        def run():
            _ok, report = channel.end_to_end_verify(inst.params, inst.config, seed)
            return report

        return [Op(run, lambda report: check_verify(report.summary(), inst), verify=True)]

    return round_ops


def analytics():
    with open(os.path.join(HERE, "refs.json")) as f:
        refs = json.load(f)

    def sweep(preset: str) -> Op:
        ns = argparse.Namespace(preset=preset, r_range=None, K_range=None,
                                format="csv", out=None)

        def check(result) -> Outcome:
            rc, text, _err = result
            if rc != 0:
                return Outcome(False, note=f"sweep {preset} exited {rc}")
            return check_digest(text.encode(), refs[preset], preset)

        return Op(lambda: captured(lambda: cli.cmd_sweep(ns)), check, verify=False)

    def cross() -> Op:
        label = f"cross_validate_{CROSS_VALIDATE_K}"

        def check(report) -> Outcome:
            # the same bytes `cpcshuffle optimize --K-max 40` prints
            text = json.dumps(report, sort_keys=True, indent=2) + "\n"
            return check_digest(text.encode(), refs[label], label)

        return Op(lambda: optimize.cross_validate(CROSS_VALIDATE_K), check, verify=False)

    ops = [sweep(p) for p in SWEEP_PRESETS] + [cross()]
    return lambda seed: ops


def argmin_grid():
    # The CLI picks (K_r, t) itself; the harness computes the same argmin
    # here, outside the timed region, to know the claimed DoF and IV bytes.
    grid = []
    for K in range(3, 9):
        for r in range(1, K):
            best = optimize.brute_force_min(r, K)
            grid.append(Instance.build(K, r, best.K_r_star, best.t_star))

    def op(inst: Instance, seed: int) -> Op:
        argv = ["verify", "--K", str(inst.K), "--r", str(inst.r), "--seed", str(seed)]

        def check(result) -> Outcome:
            rc, text, err = result
            if rc != 0:
                # exit 1 means the program reassembled wrong bytes
                return Outcome(False, wrong=rc == 1, dof_met=False,
                               note=f"{' '.join(argv[:5])} exited {rc}: {err.strip()}")
            return check_verify(json.loads(text), inst)

        return Op(lambda: captured(lambda: cli.main(argv)), check, verify=True)

    return lambda seed: [op(inst, seed) for inst in grid]


WORKLOADS = {
    "shuffle_single_shot": lambda: shuffle(10, 5, 5, 2),
    "shuffle_time_division": lambda: shuffle(9, 3, 6, 2),
    "analytics_figures": analytics,
    "argmin_grid": argmin_grid,
}


# ---------------------------------------------------------------- tracing

def _count_messages(tr: Tracer, args, kwargs, messages) -> None:
    tr.add("codec.messages", len(messages))
    # a payload is the XOR of s segments: s - 1 XORs of its length
    tr.add("codec.xor_bytes", sum((len(m.dest_group) - 1) * len(m.payload) for m in messages))


def _count_decode(tr: Tracer, args, kwargs, segment) -> None:
    message = args[0]
    tr.add("codec.xor_bytes", (len(message.dest_group) - 1) * len(message.payload))


def _count_delivery(tr: Tracer, args, kwargs, report) -> None:
    tr.add("channel.slots", report.slots_used)
    tr.peak("channel.max_condition", report.max_condition)


def _count_ivs(tr: Tracer, args, kwargs, store) -> None:
    tr.add("placement.iv_bytes", len(store.values) * (store.params.B // 8))


TRACE_TARGETS = {
    "codec.admissible_pairs": (codec, "admissible_pairs", None),
    "codec.segment_ivs": (codec, "segment_ivs", None),
    "codec.encode_partition": (codec, "encode_partition", _count_messages),
    "codec.decode_segment": (codec, "decode_segment", _count_decode),
    "channel.end_to_end_verify": (channel, "end_to_end_verify", None),
    "channel.simulate_with_resample": (channel, "simulate_with_resample", _count_delivery),
    "channel.build_precoders": (channel, "build_precoders", None),
    "channel.draw_channel": (channel, "draw_channel", None),
    "ndt.lower_bound": (ndt, "lower_bound", None),
    "ndt.cpc_minimum": (ndt, "cpc_minimum", None),
    "ndt.ndt_cpc": (ndt, "ndt_cpc", None),
    "optimize.cross_validate": (optimize, "cross_validate", None),
    "optimize.brute_force_min": (optimize, "brute_force_min", None),
    "optimize.closed_form_min": (optimize, "closed_form_min", None),
    "model.enum_subsets": (model, "enum_subsets", None),
    "model.enum_partitions": (model, "enum_partitions", None),
    "placement.build_placement": (placement, "build_placement", None),
    "placement.map_phase": (placement, "map_phase", _count_ivs),
    "cli.main": (cli, "main", None),
    "cli.cmd_sweep": (cli, "cmd_sweep", None),
}

# Per-layer metrics that are span self times: metric -> span name.
SELF_TIMES = {
    "codec.admissible_pairs_s": "codec.admissible_pairs",
    "codec.segment_ivs_s": "codec.segment_ivs",
    "codec.encode_partition_s": "codec.encode_partition",
    "codec.decode_segment_s": "codec.decode_segment",
    "channel.simulate_s": "channel.simulate_with_resample",
    "channel.build_precoders_s": "channel.build_precoders",
    "channel.draw_channel_s": "channel.draw_channel",
    "channel.verify_self_s": "channel.end_to_end_verify",
    "ndt.lower_bound_s": "ndt.lower_bound",
    "ndt.cpc_minimum_s": "ndt.cpc_minimum",
    "ndt.ndt_cpc_s": "ndt.ndt_cpc",
    "optimize.cross_validate_s": "optimize.cross_validate",
    "optimize.brute_force_min_s": "optimize.brute_force_min",
    "optimize.closed_form_min_s": "optimize.closed_form_min",
    "model.enum_subsets_s": "model.enum_subsets",
    "model.enum_partitions_s": "model.enum_partitions",
    "placement.build_placement_s": "placement.build_placement",
    "placement.map_phase_s": "placement.map_phase",
    "cli.main_self_s": "cli.main",
    "cli.cmd_sweep_self_s": "cli.cmd_sweep",
}

# Per-layer metrics that are call counts: metric -> span name.
CALLS = {
    "codec.admissible_pairs_calls": "codec.admissible_pairs",
    "codec.decode_segment_calls": "codec.decode_segment",
    "channel.blocks": "channel.build_precoders",
    "ndt.lower_bound_calls": "ndt.lower_bound",
    "ndt.ndt_cpc_calls": "ndt.ndt_cpc",
    "model.enum_subsets_calls": "model.enum_subsets",
}

# Per-layer counts the wrappers derive from arguments and results.
DERIVED = ("codec.messages", "codec.xor_bytes", "channel.slots", "channel.max_condition",
           "placement.iv_bytes")


def package_namespaces() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "cpcshuffle" or name.startswith("cpcshuffle.")]


def layer_counts(tracer: Tracer) -> dict[str, float]:
    """The counts of one traced round, which repeat for a fixed seed."""
    _self_time, calls = tracer.totals()
    out = {metric: calls.get(span, 0) for metric, span in CALLS.items()}
    out.update({metric: tracer.counts.get(metric, 0) for metric in DERIVED})
    # every draw after the first inside one simulate_with_resample call
    draws = collections.Counter(parent for name, _start, _end, parent in tracer.spans
                                if name == "channel.draw_channel")
    out["channel.resamples"] = sum(n - 1 for n in draws.values())
    return out


def layer_self_times(tracer: Tracer) -> dict[str, float]:
    self_time, _calls = tracer.totals()
    return {metric: self_time.get(span, 0.0) for metric, span in SELF_TIMES.items()}


# ---------------------------------------------------------------- rounds

def run_round(ops: list[Op], sampler: SpeedSampler) -> tuple[float, float, list[Outcome]]:
    """Time every operation, then check every result.

    Returns the raw wall, the wall scaled to reference speed (see speed.py)
    and the outcomes.  The sampler takes its samples only while an
    operation runs, and the time they took is subtracted before scaling.
    """
    wall = 0.0
    results = []
    for op in ops:
        t0 = time.perf_counter()
        sampler.active = True
        try:
            results.append((op.run(), None))
        except Exception as e:  # an operation that raises is a failed operation
            results.append((None, f"{type(e).__name__}: {e}"))
        finally:
            sampler.active = False
        wall += time.perf_counter() - t0
    outcomes = []
    for op, (result, error) in zip(ops, results):
        if error is None:
            outcomes.append(op.check(result))
        else:
            outcomes.append(Outcome(False, dof_met=False if op.verify else None, note=error))
    samples = sampler.take()
    if samples:
        scaled = (wall - sum(samples)) * speed.scale(samples)
    else:  # a round shorter than the sampling period
        scaled = wall * speed.scale([speed.time_kernel(20)])
    return wall, scaled, outcomes


def measure(round_ops, rng: random.Random, seconds: float) -> dict:
    """Untraced rounds until `seconds` would be exceeded."""
    walls, scaled, outcomes = [], [], []
    start = time.perf_counter()
    with SpeedSampler() as sampler:
        while True:
            wall, wall_scaled, got = run_round(round_ops(rng.getrandbits(31)), sampler)
            walls.append(wall)
            scaled.append(wall_scaled)
            outcomes += got
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(walls) > seconds:
                break
    return {"walls": walls, "scaled_walls": scaled, "outcomes": outcomes}


def trace(round_ops, rng: random.Random, seconds: float, spans_out: str | None) -> dict:
    """A warm-up round, then pairs of an untraced and a traced round on one
    seed until `seconds` would be exceeded.

    The warm-up lets the heap grow before the pairs, so the first round of
    a pair does not pay for it.  Self times are raw medians over the
    traced rounds; counts come from the first traced round, so they
    repeat for a given seed.
    """
    walls, scaled, traced_walls, traced_scaled, layer_times = [], [], [], [], []
    counts: dict[str, float] = {}
    with SpeedSampler() as sampler:
        _wall, _scaled, outcomes = run_round(round_ops(rng.getrandbits(31)), sampler)
        start = time.perf_counter()
        while True:
            seed = rng.getrandbits(31)
            wall, wall_scaled, got = run_round(round_ops(seed), sampler)
            walls.append(wall)
            scaled.append(wall_scaled)
            outcomes += got
            with Tracer() as tracer:
                tracer.install(package_namespaces(), TRACE_TARGETS)
                wall, wall_scaled, got = run_round(round_ops(seed), sampler)
            traced_walls.append(wall)
            traced_scaled.append(wall_scaled)
            outcomes += got
            layer_times.append(layer_self_times(tracer))
            if not counts:
                counts = layer_counts(tracer)
                if spans_out:
                    tracer.write(spans_out)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(walls) > seconds:
                break
    layers = layer_summary(layer_times, counts, traced_walls, traced_scaled, scaled)
    return {"walls": walls, "outcomes": outcomes, "layers": layers}


def layer_summary(layer_times: list[dict[str, float]], counts: dict[str, float],
                  traced_walls: list[float], traced_scaled: list[float],
                  untraced_scaled: list[float]) -> dict[str, float]:
    """Per-layer metrics of a traced run: median self times, the counts,
    the raw traced wall and the tracing overhead in scaled seconds."""
    layers = {metric: statistics.median(t[metric] for t in layer_times) for metric in SELF_TIMES}
    layers.update(counts)
    layers["trace.wall_s"] = statistics.median(traced_walls)
    layers["trace.overhead_s"] = statistics.median(traced_scaled) - statistics.median(untraced_scaled)
    return layers


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, report when the first operation would start, exit")
    ap.add_argument("--spans-out", help="file for the first traced round's spans")
    args = ap.parse_args(argv)

    round_ops = WORKLOADS[args.workload]()
    if args.setup_only:
        print(json.dumps({"ready_at": time.monotonic()}))
        return 0
    rng = random.Random(args.seed)
    if args.trace:
        result = trace(round_ops, rng, args.seconds, args.spans_out)
    else:
        result = measure(round_ops, rng, args.seconds)

    outcomes = result.pop("outcomes")
    failed = [o for o in outcomes if not o.ok]
    verifies = [o for o in outcomes if o.dof_met is not None]
    result.update({
        "rounds": len(result["walls"]),
        "attempted": len(outcomes),
        "failed": len(failed),
        "wrong": sum(o.wrong for o in outcomes),
        "notes": sorted({o.note for o in failed}),
        "checked_bytes": sum(o.checked_bytes for o in outcomes),
        "verifies": len(verifies),
        "dof_met": sum(bool(o.dof_met) for o in verifies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
