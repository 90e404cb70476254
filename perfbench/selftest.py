"""Self-test of the cpcshuffle benchmark harness.

    python3 perfbench/selftest.py

Checks the tracer's self-time arithmetic on a synthetic nested call,
that patching reaches every namespace holding a function and is undone,
that every metric name the harness emits is well formed and listed in
BENCHMARK.json with the same unit, and that the per-layer counts repeat
across two traced runs of the same seed.  Exits non-zero on failure.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
REPEATING_COUNTS = ("channel.resamples", "channel.blocks", "channel.slots",
                    "codec.messages", "codec.xor_bytes", "ndt.ndt_cpc_calls")


def test_self_time_arithmetic() -> None:
    now = [0.0]

    def tick(dt: float) -> None:
        now[0] += dt

    lib = types.ModuleType("lib")

    def leaf():
        tick(4)

    def inner():
        tick(5)
        lib.leaf()
        tick(1)

    def outer():
        tick(1)
        lib.inner()
        tick(2)
        lib.inner()
        tick(3)

    def broken():
        tick(7)
        raise KeyError("boom")

    lib.leaf, lib.inner, lib.outer, lib.broken = leaf, inner, outer, broken
    alias = types.ModuleType("alias")  # holds `outer` by name, like `from lib import outer`
    alias.outer = outer

    tracer = Tracer(clock=lambda: now[0])
    with tracer:
        tracer.install([lib, alias], {
            "leaf": (lib, "leaf", None),
            "inner": (lib, "inner", lambda tr, a, k, r: tr.add("inner.done")),
            "outer": (lib, "outer", None),
            "broken": (lib, "broken", None),
        })
        assert alias.outer is lib.outer and alias.outer is not outer
        alias.outer()
        try:
            lib.broken()
        except KeyError:
            pass
        else:
            raise AssertionError("the wrapper swallowed an exception")
    assert (lib.leaf, lib.inner, lib.outer, alias.outer) == (leaf, inner, outer, outer)

    self_time, calls = tracer.totals()
    assert self_time == {"outer": 6, "inner": 12, "leaf": 8, "broken": 7}, self_time
    assert calls == {"outer": 1, "inner": 2, "leaf": 2, "broken": 1}, calls
    assert tracer.counts == {"inner.done": 2}, tracer.counts
    assert tracer.spans[0] == ["outer", 0.0, 26.0, -1], tracer.spans[0]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0, 3, -1], tracer.spans
    assert tracer._stack == []


def test_patches_by_name_imports() -> None:
    from cpcshuffle import channel, cli, codec, ndt, optimize

    originals = (codec.encode_partition, ndt.cpc_minimum, ndt.ndt_cpc, optimize.brute_force_min)
    with Tracer() as tracer:
        tracer.install(workloads.package_namespaces(), workloads.TRACE_TARGETS)
        assert channel.encode_partition is codec.encode_partition is not originals[0]
        assert optimize.cpc_minimum is ndt.cpc_minimum is not originals[1]
        assert optimize.ndt_cpc is ndt.ndt_cpc is not originals[2]
        assert cli.brute_force_min is optimize.brute_force_min is not originals[3]
    assert (channel.encode_partition, optimize.cpc_minimum, optimize.ndt_cpc,
            cli.brute_force_min) == originals


def emitted_names() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric names with units, as run.py emits them."""
    res = {"walls": [1.0], "scaled_walls": [1.0], "rounds": 1,
           "attempted": 1, "failed": 0, "checked_bytes": 1, "peak_rss_mb": 1.0,
           "verifies": 0, "dof_met": 0}
    tracer = Tracer()
    res["layers"] = workloads.layer_summary([workloads.layer_self_times(tracer)],
                                            workloads.layer_counts(tracer), [1.0], [1.0], [1.0])
    e2e = {name: run.END_TO_END_UNITS[name] for name in run.end_to_end(res, [1.0])}
    layers = {name: run.layer_unit(name) for name in run.per_layer(res)}
    return e2e, layers


def test_names_and_benchmark_json() -> None:
    e2e, layers = emitted_names()
    for name in [*e2e, *layers]:
        assert NAME.fullmatch(name), f"bad metric name {name!r}"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == e2e
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in REPEATING_COUNTS}


def test_counts_repeat() -> None:
    for workload in ("shuffle_time_division", "argmin_grid"):
        first, second = traced_counts(workload, 7), traced_counts(workload, 7)
        assert first == second, (workload, first, second)


def main() -> int:
    tests = [test_self_time_arithmetic, test_patches_by_name_imports,
             test_names_and_benchmark_json, test_counts_repeat]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
