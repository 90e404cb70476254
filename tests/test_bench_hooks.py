"""The benchmark harness's hooks into the package still resolve.

`perfbench/workloads.py` traces package functions by (module, name) and
builds its verify instances through the public API.  A rename or a
deletion there would otherwise surface only when the benchmark runs.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its siblings `speed` and `tracer` by name, and its
    # dataclasses resolve their annotations through sys.modules
    before = set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("speed", "tracer", "perfbench_workloads"):
            if name not in before:
                sys.modules.pop(name, None)
    return module


def test_trace_targets_resolve(workloads):
    assert len(workloads.TRACE_TARGETS) == 20
    for label, (module, name, _count) in workloads.TRACE_TARGETS.items():
        assert module.__name__ == "cpcshuffle." + label.split(".")[0], label
        assert callable(getattr(module, name, None)), f"{label} no longer exists"


@pytest.mark.parametrize("K, r, K_r, t", [(10, 5, 5, 2), (9, 3, 6, 2)])
def test_shuffle_instances_build(workloads, K, r, K_r, t):
    inst = workloads.Instance.build(K, r, K_r, t)
    assert (inst.config.K_r, inst.config.t) == (K_r, t)
    assert inst.params.B % 8 == 0 and inst.iv_bytes > 0


@pytest.fixture(scope="module")
def time_division_partition(workloads):
    """(config, first partition, its payload rows) of the (9,3,6,2) instance."""
    from cpcshuffle import codec, model, placement

    inst = workloads.Instance.build(9, 3, 6, 2)
    params, config = inst.params, inst.config
    pl = placement.build_placement(params)
    store = placement.map_phase(pl, params, 0)
    segments = codec.segment_ivs(pl, config, store)
    part = model.enum_partitions(params.K, config.K_t)[0]
    return config, part, codec.encode_payloads(segments, part, config)


def test_delivery_hook_reads_a_real_report(workloads, time_division_partition):
    # `_count_delivery` reads `slots_used` and `max_condition` off the
    # report `simulate_with_resample` returns; feed it one through the hook
    from cpcshuffle import channel

    config, part, payloads = time_division_partition
    target = "channel.simulate_with_resample"
    with workloads.Tracer() as tracer:
        tracer.install([channel], {target: workloads.TRACE_TARGETS[target]})
        report = channel.simulate_with_resample(part, config, payloads, 0)
    assert not hasattr(channel.simulate_with_resample, "__wrapped__")  # restored
    assert report.slots_used == channel.partition_slots(config) == 120
    assert tracer.counts == {
        "channel.slots": report.slots_used,
        "channel.max_condition": report.max_condition,
    }
    assert 1.0 <= report.max_condition < workloads.MAX_CONDITION


def test_blocks_count_one_precoder_build_each(workloads, time_division_partition):
    # `build_precoders` takes the cofactors of stacked blocks, so the
    # leading axes of its cofactor arrays count each (receiver set,
    # cooperation group) block exactly once
    from cpcshuffle import channel

    config, part, payloads = time_division_partition
    targets = {name: workloads.TRACE_TARGETS[name]
               for name in ("channel.build_precoders", "channel.draw_channel")}
    built = (channel, "build_precoders", lambda tr, args, kwargs, W: tr.add("built", len(args[0])))
    targets["channel.build_precoders"] = built
    with workloads.Tracer() as tracer:
        tracer.install([channel], targets)
        channel.simulate_with_resample(part, config, payloads, 0)
    g = min(config.K_r, config.s + config.t - 1)
    blocks = math.comb(config.K_r, g) * math.comb(config.K_t, config.t)
    counts = workloads.layer_counts(tracer)
    assert tracer.counts["built"] == blocks == 60
    assert counts["channel.resamples"] == 0


def test_ideal_verify_makes_no_per_block_or_per_message_codec_call(workloads):
    # segmentation ranks every block's pairs and every message's rows as
    # arrays, one XOR-reduce encodes the whole config and reassembly
    # decodes a node's blocks in one gather: the readable per-block,
    # per-partition and per-segment functions are never called
    from cpcshuffle import channel

    inst = workloads.Instance.build(8, 5, 4, 2)
    targets = {name: workloads.TRACE_TARGETS[name] for name in
               ("codec.admissible_pairs", "codec.encode_partition", "codec.decode_segment")}
    with workloads.Tracer() as tracer:
        tracer.install(workloads.package_namespaces(), targets)
        ok, _report = channel.ideal_verify(inst.params, inst.config, 0)
    assert ok
    _self_time, calls = tracer.totals()
    counts = workloads.layer_counts(tracer)
    assert counts["codec.admissible_pairs_calls"] == 0
    assert calls.get("codec.encode_partition", 0) == 0
    assert counts["codec.decode_segment_calls"] == 0


def test_iv_hook_counts_the_store_map_phase_returns(workloads):
    # `_count_ivs` reads `len(store.values)`, a mapping the store builds
    # from its (Q, N, B/8) array on demand: every IV's bytes count once
    from cpcshuffle import placement

    params = workloads.Instance.build(9, 3, 6, 2).params
    pl = placement.build_placement(params)
    target = "placement.map_phase"
    with workloads.Tracer() as tracer:
        tracer.install([placement], {target: workloads.TRACE_TARGETS[target]})
        store = placement.map_phase(pl, params, 0)
    assert not hasattr(placement.map_phase, "__wrapped__")  # restored
    iv_bytes = params.Q * params.N * params.B // 8
    assert tracer.counts == {"placement.iv_bytes": iv_bytes}
    assert store.array.nbytes == iv_bytes == 9 * 84 * 60


def test_end_to_end_verify_never_builds_the_values_mapping(workloads, monkeypatch):
    # the pipeline reads the store's array alone; `values` is built, and
    # cached on the store, only when something asks for it
    from cpcshuffle import channel

    stores = []
    real = channel.map_phase

    def captured(*args):
        stores.append(real(*args))
        return stores[-1]

    monkeypatch.setattr(channel, "map_phase", captured)
    inst = workloads.Instance.build(9, 3, 6, 2)
    ok, _report = channel.end_to_end_verify(inst.params, inst.config, 0)
    assert ok and len(stores) == 1
    assert "values" not in vars(stores[0])
    assert len(stores[0].values) == inst.params.Q * inst.params.N
    assert "values" in vars(stores[0])
