import csv
import io
import itertools
import json
import math
from fractions import Fraction

import pytest

from cpcshuffle import channel, cli, ndt
from cpcshuffle.cli import main
from cpcshuffle.codec import encode_partition, segment_ivs
from cpcshuffle.model import (
    ParameterError,
    SystemParams,
    config_violation,
    enum_partitions,
    validate_config,
)
from cpcshuffle.placement import build_placement, map_phase

WORKED = ["--K", "6", "--N", "20", "--Q", "6", "--r", "3", "--Kr", "3", "--t", "2", "--B", "48"]
# the worked instance with two outputs per node (eta2 = 2): a block holds
# two IVs, so B = 24 fills its six segments with whole bytes
DOUBLED = ["--K", "6", "--N", "20", "--Q", "12", "--r", "3", "--Kr", "3", "--t", "2"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConstruct:
    def test_worked_example_dump(self, capsys):
        code, out, _ = run(capsys, "construct", *WORKED)
        assert code == 0
        dump = json.loads(out)
        assert len(dump["partitions"]) == 20
        assert len(dump["messages"]) == 180
        assert dump["messages"][0]["p"] == 1
        assert all(len(m["segments"]) == 2 for m in dump["messages"])
        assert "payload" not in dump["messages"][0]

    def test_dump_matches_the_per_message_reference(self, capsys, monkeypatch):
        # construct reads each message off the segment table's rows; the
        # readable reference must name the same messages in the same
        # order: encode_partition's (p, D, B) and payload, and the
        # message's constituents() as its segments.  The dump is compared
        # as JSON values, so it is written unindented, by the C encoder;
        # test_golden pins its indented text
        monkeypatch.setattr(cli, "_json", json.dumps)
        configs = 0
        for K in range(2, 9):
            for r, K_r in itertools.product(range(1, K), range(1, K + 1)):
                for t in range(1, r + 1):
                    if config_violation(K, r, K_r, t) is not None:
                        continue
                    configs += 1
                    flags = ["--K", K, "--r", r, "--Kr", K_r, "--t", t]
                    code, out, _ = run(capsys, "construct", *map(str, flags), "--with-payloads")
                    assert code == 0
                    dump = json.loads(out)
                    p = dump["params"]
                    params = SystemParams(K=K, N=p["N"], Q=p["Q"], r=r, B=p["B"])
                    cfg = validate_config(params, K_r, t)
                    placement = build_placement(params)
                    segs = segment_ivs(placement, cfg, map_phase(placement, params, p["seed"]))
                    expected = [
                        {
                            "p": m.partition,
                            "D": list(m.dest_group),
                            "B": list(m.coop),
                            "segments": [{"dest": sid.dest, "storage": list(sid.storage)}
                                         for sid in m.constituents()],
                            "payload": m.payload.hex(),
                        }
                        for part in segs.partitions
                        for m in encode_partition(segs, part, cfg)
                    ]
                    assert dump["messages"] == expected, (K, r, K_r, t)
        assert configs == 210

    def test_payload_flag(self, capsys):
        code, out, _ = run(capsys, "construct", *WORKED, "--with-payloads")
        dump = json.loads(out)
        assert len(bytes.fromhex(dump["messages"][0]["payload"])) == 1

    def test_full_load_is_empty(self, capsys):
        code, out, _ = run(capsys, "construct", "--K", "4", "--r", "4")
        assert code == 0
        assert json.loads(out)["messages"] == []

    def test_invalid_config_exits_two(self, capsys):
        code, _, err = run(capsys, "construct", "--K", "6", "--N", "20", "--Q", "6",
                           "--r", "3", "--Kr", "2", "--t", "1")
        assert code == 2
        assert "s <= K_r" in err

    def test_default_b_is_the_least_that_splits(self, capsys):
        code, out, _ = run(capsys, "construct", *DOUBLED)
        assert code == 0
        assert json.loads(out)["params"]["B"] == 24

    def test_unsplittable_b_exits_two_before_any_work(self, capsys, monkeypatch):
        def placed(*args):
            raise AssertionError("placement built before B was checked")

        monkeypatch.setattr(channel, "build_placement", placed)
        monkeypatch.setattr(cli, "build_placement", placed)
        short = (
            "error: B=12 does not split into whole-byte IVs and segments; "
            "choose B as a multiple of 24\n"
        )
        for command in (["construct"], ["verify", "--ideal"]):
            code, out, err = run(capsys, *command, *DOUBLED, "--B", "12")
            assert (code, out, err) == (2, "", short), command

    def test_reruns_byte_identical(self, capsys):
        _, a, _ = run(capsys, "construct", *WORKED, "--with-payloads", "--seed", "5")
        _, b, _ = run(capsys, "construct", *WORKED, "--with-payloads", "--seed", "5")
        assert a == b

    def test_byte_identical_across_processes(self):
        # two fresh processes under different hash seeds print the same
        # bytes, float fields included: the payloads, and the channel draw
        # of `verify` and `simulate`
        import os
        import subprocess
        import sys

        instance = ["--K", "9", "--r", "3", "--Kr", "6", "--t", "2"]
        for argv, min_len in (
            (["construct", *WORKED, "--with-payloads", "--seed", "9"], 1000),
            (["verify", *instance, "--seed", "5"], 200),
            (["simulate", *instance, "--partition", "2"], 200),
        ):
            a, b = (
                subprocess.run(
                    [sys.executable, "-m", "cpcshuffle", *argv], capture_output=True, check=True,
                    env={**os.environ, "PYTHONHASHSEED": hash_seed},
                ).stdout
                for hash_seed in ("1", "2")
            )
            assert a == b and len(a) > min_len, argv
            if argv[0] != "construct":
                assert json.loads(a)["max_condition"] > 1.0, argv


class TestVerify:
    def test_channel_path(self, capsys):
        code, out, _ = run(capsys, "verify", *WORKED)
        assert code == 0
        rep = json.loads(out)
        assert rep["ok"] is True
        assert rep["claimed_dof"] == "1" and rep["measured_dof"] == "1"

    def test_ideal_path(self, capsys):
        code, out, _ = run(capsys, "verify", *WORKED, "--ideal")
        assert code == 0
        rep = json.loads(out)
        assert rep["claimed_dof"] is None and rep["measured_dof"] is None

    def test_zero_measured_dof_is_reported(self, capsys, monkeypatch):
        # no symbol meets a zero tolerance: a measured DoF of 0, not "not measured"
        monkeypatch.setattr(channel, "TOLERANCE", 0.0)
        code, out, _ = run(capsys, "verify", *WORKED)
        assert code == 1
        assert json.loads(out)["measured_dof"] == "0"

    def test_fault_exits_one(self, capsys):
        code, out, _ = run(capsys, "verify", *WORKED, "--fault")
        assert code == 1
        assert json.loads(out)["failures"]

    def test_wide_cooperation_instance(self, capsys):
        code, out, _ = run(capsys, "verify", "--K", "8", "--N", "56", "--Q", "8",
                           "--r", "5", "--Kr", "4", "--t", "2", "--B", "80")
        assert code == 0

    def test_full_load_trivial(self, capsys):
        code, out, _ = run(capsys, "verify", "--K", "4", "--r", "4")
        assert code == 0

    def test_full_load_checks_k(self, capsys):
        # r = K skips the instance build, but K must still be in range
        for command in ("verify", "construct"):
            for K in ("0", "-1", "-3", "65", "100"):
                code, out, err = run(capsys, command, "--K", K, "--r", K)
                assert code == 2, (command, K)
                assert out == "" and "K must lie in [1, 64]" in err
        code, out, _ = run(capsys, "verify", "--K", "64", "--r", "64")
        assert code == 0 and json.loads(out) == {"ok": True, "failures": [], "partitions": 0}

    @pytest.mark.parametrize("command", ["verify", "construct"])
    @pytest.mark.parametrize("flag", [("--seed", "-5"), ("--B", "0"), ("--N", "0"), ("--Q", "3")])
    def test_full_load_checks_its_flags(self, capsys, command, flag):
        # r = K builds no placement, yet an invalid N, Q, B or seed is
        # refused with the error it gets at r < K
        code, out, err = run(capsys, command, "--K", "4", "--r", "4", *flag)
        want = run(capsys, command, "--K", "4", "--r", "3", *flag)
        assert want[0] == 2 and want[2].startswith("error: ")
        assert (code, out, err) == (2, "", want[2])

    @pytest.mark.parametrize("K, r, K_r, t", [(64, 1, 1, 1), (64, 1, 2, 1), (64, 62, 63, 1)])
    def test_largest_k_verifies_over_the_channel(self, capsys, K, r, K_r, t):
        # K = MAX_NODES: node 64 sits in the int8 node arrays, the C(64, .)
        # binomials of the segment table and the receiver masks of the
        # channel's blocks
        instance = ["--K", str(K), "--r", str(r), "--Kr", str(K_r), "--t", str(t)]
        code, out, _ = run(capsys, "verify", *instance)
        rep = json.loads(out)
        s = r + 1 - t
        assert code == 0 and rep["ok"] and rep["failures"] == []
        assert rep["partitions"] == math.comb(K, K - K_r)
        assert rep["measured_dof"] == str(Fraction(min(K_r, s + t - 1), K_r))

    def test_report_names_its_params(self, capsys):
        # the instance a run used, defaults filled in, on both paths: the
        # least B that splits, and the optimizer's (K_r, t)
        for path in ((), ("--ideal",)):
            code, out, _ = run(capsys, "verify", *DOUBLED, *path)
            assert code == 0, path
            assert json.loads(out)["params"] == {
                "K": 6, "N": 20, "Q": 12, "r": 3, "B": 24, "K_r": 3, "t": 2, "s": 2, "seed": 0,
            }
        best = ndt.cpc_minimum(3, 9)
        code, out, _ = run(capsys, "verify", "--K", "9", "--r", "3", "--seed", "4")
        params = json.loads(out)["params"]
        assert code == 0 and (params["K_r"], params["t"]) == (best.K_r, best.t)
        assert (params["N"], params["Q"], params["s"], params["seed"]) == (84, 9, 4 - best.t, 4)
        # and it is the object construct dumps
        code, dump, _ = run(capsys, "construct", "--K", "9", "--r", "3", "--seed", "4")
        assert json.loads(dump)["params"] == params

    def test_what_the_channel_cannot_run_exits_two_before_any_work(self, capsys, monkeypatch):
        # 120 bits suit the codec, so the XOR-only path runs them
        short_b = ["--K", "9", "--r", "3", "--Kr", "6", "--t", "2", "--B", "120"]
        code, out, _ = run(capsys, "verify", *short_b, "--ideal")
        assert code == 0 and json.loads(out)["ok"] is True

        def placed(*args):
            raise AssertionError("placement built before the config was checked")

        # s + t = K_r is no such case: it runs at DoF (K_r - 1) / K_r
        for command in ("verify", "simulate"):
            code, out, _ = run(capsys, command, "--K", "6", "--r", "3", "--Kr", "4", "--t", "1")
            assert code == 0 and json.loads(out)["measured_dof"] == "3/4", command

        monkeypatch.setattr(channel, "build_placement", placed)
        monkeypatch.setattr(cli, "build_placement", placed)
        short = (
            "error: B=120 does not split into whole-byte IVs, segments and channel chunks; "
            "choose B as a multiple of 480\n"
        )
        for command in ("verify", "simulate"):
            # 120 bits make one-byte payloads, which the channel cuts into 4 chunks
            code, out, err = run(capsys, command, *short_b)
            assert (code, out, err) == (2, "", short), command

    def test_every_alignment_config_verifies_at_k_r_minus_one_over_k_r(self, capsys):
        # s + t = K_r, i.e. K_r = r + 1: every such valid config with K <= 8
        # is delivered over the channel at DoF (K_r - 1) / K_r, while
        # `claimed_dof` stays the alignment fraction a / (a + 1) with
        # a = C(K_r - 1, s - 1) C(K_t, t) t
        configs = 0
        for K in range(3, 9):
            for r in range(1, K - 1):
                K_r = r + 1
                for t in range(1, min(r, K - K_r) + 1):
                    s, K_t = r + 1 - t, K - K_r
                    configs += 1
                    instance = ["--K", str(K), "--r", str(r), "--Kr", str(K_r), "--t", str(t)]
                    code, out, _ = run(capsys, "verify", *instance)
                    rep = json.loads(out)
                    a = math.comb(K_r - 1, s - 1) * math.comb(K_t, t) * t
                    where = (K, r, K_r, t)
                    assert code == 0 and rep["ok"] and rep["failures"] == [], where
                    assert rep["measured_dof"] == str(Fraction(K_r - 1, K_r)), where
                    assert rep["claimed_dof"] == str(Fraction(a, a + 1)), where
        assert configs == 34
        # the optimizer's pick at (K, r) = (4, 1) is such a config, and a
        # flipped payload byte fails its reassembly
        code, out, _ = run(capsys, "verify", "--K", "4", "--r", "1", "--fault")
        rep = json.loads(out)
        assert code == 1 and rep["failures"] and (rep["params"]["K_r"], rep["params"]["t"]) == (2, 1)

    def test_defaults_fill_in(self, capsys):
        # no N/Q/B/Kr/t: optimizer picks the split, B auto-aligns
        code, out, _ = run(capsys, "verify", "--K", "5", "--r", "2", "--ideal")
        assert code == 0

    def test_pinned_t_only(self, capsys):
        code, out, _ = run(capsys, "construct", "--K", "6", "--r", "3", "--t", "2")
        assert code == 0
        dump = json.loads(out)
        assert dump["params"]["t"] == 2
        assert dump["params"]["B"] % 8 == 0

    def test_pinned_kr_only(self, capsys):
        code, out, _ = run(capsys, "construct", "--K", "6", "--r", "3", "--Kr", "4")
        assert code == 0
        assert json.loads(out)["params"]["K_r"] == 4

    def test_pinned_kr_without_valid_t_exits_two(self, capsys):
        # K_r = K leaves no transmitter for any t; t > r fits no K_r.  The
        # error names only the coordinate that was pinned
        code, _, err = run(capsys, "construct", "--K", "6", "--r", "3", "--Kr", "6")
        assert code == 2
        assert err == "error: no valid configuration with K_r=6 for r=3, K=6\n"
        code, _, err = run(capsys, "verify", "--K", "5", "--r", "2", "--t", "5")
        assert code == 2
        assert err == "error: no valid configuration with t=5 for r=2, K=5\n"

    def test_default_b_supports_time_division_chunks(self, capsys):
        # t = 2 in the time-division regime needs the payload to split into
        # C(K_r-s, t-1) chunks; the auto-sized B must account for it
        instance = ["--K", "9", "--r", "3", "--Kr", "6", "--t", "2"]
        code, out, _ = run(capsys, "simulate", *instance, "--partition", "1")
        assert code == 0
        assert json.loads(out)["measured_dof"] == "1/2"
        # the analytics claim the asymptotic d' term; the engine realizes r / K_r
        code, out, _ = run(capsys, "verify", *instance)
        assert code == 0
        rep = json.loads(out)
        assert rep["claimed_dof"] == "3/5" and rep["measured_dof"] == "1/2"


class TestInstanceBuilder:
    # construct, verify and simulate build their instance in one place,
    # which checks K, r, the pins, N/Q/B and the seed before any search

    @pytest.mark.parametrize("command", ["construct", "verify", "simulate"])
    @pytest.mark.parametrize("pins, named", [
        (("--Kr", "2"), "K_r=2"),
        (("--t", "7"), "t=7"),
        (("--Kr", "0"), "K_r=0"),
        (("--Kr", "2", "--t", "1"), "K_r=2, t=1"),
    ])
    def test_full_load_refuses_a_pin(self, capsys, command, pins, named):
        # no (K_r, t) is valid at r = K: it needs K + 1 - t <= K_r <= K - t
        code, out, err = run(capsys, command, "--K", "4", "--r", "4", *pins)
        assert (code, out) == (2, ""), pins
        assert err == f"error: no valid configuration with {named} for r=4, K=4\n"

    def test_full_load_pin_text_matches_the_search(self, capsys):
        # the text cpc_minimum gives at r < K to a pin that fits nothing
        for pin, value in (("--Kr", "4"), ("--t", "4")):
            code, _, err = run(capsys, "verify", "--K", "4", "--r", "3", pin, value)
            assert code == 2
            want = run(capsys, "verify", "--K", "4", "--r", "4", pin, value)[2]
            assert err.replace("r=3", "r=4") == want, pin

    @pytest.mark.parametrize("K", ["0", "-1", "65", "3000"])
    @pytest.mark.parametrize("r", ["3", "K"])
    def test_simulate_checks_k_before_any_search(self, capsys, monkeypatch, K, r):
        def searched(*args, **kwargs):
            raise AssertionError("argmin searched before K was checked")

        monkeypatch.setattr(ndt, "cpc_minimum", searched)
        argv = ["--K", K, "--r", K if r == "K" else r]
        code, out, err = run(capsys, "simulate", *argv)
        want = run(capsys, "verify", *argv)
        assert (code, out, err) == want == (2, "", f"error: K must lie in [1, 64], got {K}\n")

    @pytest.mark.parametrize("K", [0, 65])
    def test_one_k_guard_for_params_partitions_and_cli(self, capsys, K):
        # SystemParams, enum_partitions and the instance builder share one
        # K-range check, so each refuses an out-of-range K in the same words
        want = f"K must lie in [1, 64], got {K}"
        with pytest.raises(ParameterError) as params:
            SystemParams(K=K, N=1, Q=1, r=1, B=8)
        with pytest.raises(ParameterError) as partitions:
            enum_partitions(K, 2)
        assert str(params.value) == str(partitions.value) == want
        assert run(capsys, "verify", "--K", str(K), "--r", "1") == (2, "", f"error: {want}\n")

    def test_full_load_simulate_refused_after_its_flags(self, capsys):
        code, out, err = run(capsys, "simulate", "--K", "4", "--r", "4", "--seed", "-1")
        assert (code, out) == (2, "") and "seed must lie in" in err
        code, out, err = run(capsys, "simulate", "--K", "4", "--r", "4")
        assert (code, out) == (2, "")
        assert err == "error: r = K = 4: every IV is local, there is nothing to shuffle\n"


class TestSimulate:
    def test_partition_report(self, capsys):
        code, out, _ = run(capsys, "simulate", *WORKED, "--partition", "1")
        assert code == 0
        rep = json.loads(out)
        assert rep["measured_dof"] == "1"
        assert rep["max_residual"] < 1e-9
        assert set(rep) == {
            "partition", "regime", "slots_used", "symbols_per_receiver", "measured_dof",
            "max_condition", "max_residual", "max_symbol_error",
        }
        # delivery has no noise model, so argparse refuses --snr
        with pytest.raises(SystemExit) as exc:
            main(["simulate", *WORKED, "--snr", "30"])
        assert exc.value.code == 2 and capsys.readouterr().out == ""

    def test_partition_out_of_range_exits_two_before_any_work(self, capsys, monkeypatch):
        def placed(*args):
            raise AssertionError("placement built before the partition was checked")

        monkeypatch.setattr(cli, "build_placement", placed)
        instance = ["--K", "12", "--r", "4", "--Kr", "8", "--t", "1"]
        for index in ("0", "496"):
            code, out, err = run(capsys, "simulate", *instance, "--partition", index)
            assert (code, out) == (2, ""), index
            assert err == f"error: partition index {index} out of [1, 495]\n"

    def test_full_load_refused(self, capsys):
        code, _, err = run(capsys, "simulate", "--K", "4", "--r", "4")
        assert code == 2
        assert "nothing to shuffle" in err
        assert "K_r=0" not in err


class TestChannelGuard:
    @pytest.mark.parametrize("command", ["verify", "simulate"])
    def test_redraw_that_trips_again_exits_three(self, capsys, monkeypatch, command):
        # every kappa_F is at least 1, so a guard of 0.5 trips the first
        # draw and its one redraw: exit 3 with one stderr line, never 1,
        # which means a failed verification, and no traceback
        monkeypatch.setattr(channel, "CONDITION_GUARD", 0.5)
        code, out, err = run(capsys, command, "--K", "9", "--r", "3", "--Kr", "6", "--t", "2")
        assert code == cli.EXIT_INTERNAL == 3 and out == ""
        assert err.startswith("channel error: condition number ") and err.count("\n") == 1
        assert err.endswith(" exceeds guard 5.0e-01, after one redraw\n")


class TestOut:
    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        # exit 1 would read as "verification failed"
        for command in ("construct", "verify", "simulate"):
            target = tmp_path / "missing" / "x.json"
            code, out, err = run(capsys, command, *WORKED, "--out", str(target))
            assert code == 2, command
            assert out == "" and not target.exists()
            assert err.startswith(f"error: cannot write --out {target}: ")
        code, _, err = run(capsys, "optimize", "--r", "3", "--K", "6", "--out", str(tmp_path))
        assert code == 2 and "cannot write --out" in err


class TestSeedRange:
    def test_out_of_range_seed_exits_two(self, capsys):
        for command in ("construct", "verify", "simulate"):
            for seed in ("-1", str(2**64)):
                code, out, err = run(capsys, command, *WORKED, "--seed", seed)
                assert code == 2, (command, seed)
                assert out == ""
                assert "seed must lie in [0, 2**64)" in err

    def test_largest_seed_runs(self, capsys):
        code, out, _ = run(capsys, "verify", *WORKED, "--ideal", "--seed", str(2**64 - 1))
        assert code == 0
        assert json.loads(out)["ok"] is True


class TestNdtCommand:
    def test_csv_schema_and_values(self, capsys):
        code, out, _ = run(capsys, "ndt", "--r", "2", "--K", "50")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["scheme", "K", "r", "K_r", "t", "value"]
        by_scheme = {row[0]: row for row in rows[1:]}
        assert by_scheme["CDC"][5] == "12/25"
        assert by_scheme["CPC"][3] == "29"
        assert set(by_scheme) == {
            "UncodedTDMA", "CDC", "OSL_FD", "OSL_HD", "BW_FD", "BW_HD",
            "CPC", "LowerBound",
        }

    def test_fractional_load(self, capsys):
        code, out, _ = run(capsys, "ndt", "--r", "5/2", "--K", "6", "--format", "json")
        assert code == 0
        assert any(row["scheme"] == "CPC" for row in json.loads(out))

    def test_zero_denominator_exits_two(self, capsys):
        for command in ("ndt", "bounds"):
            code, out, err = run(capsys, command, "--r", "1/0", "--K", "6")
            assert code == 2, command
            assert out == ""
            assert "r=1/0 has a zero denominator" in err

    def test_single_node_full_load(self, capsys):
        code, out, _ = run(capsys, "ndt", "--r", "1", "--K", "1")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 8
        assert {row[5] for row in rows} == {"0"}


class TestSweep:
    def test_explicit_grid_row_count(self, capsys):
        code, out, _ = run(capsys, "sweep", "--r-range", "1:3", "--K-range", "4:6")
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 8 * 3 * 3  # schemes x r x K

    def test_fig2_spot_values(self, capsys):
        code, out, _ = run(capsys, "sweep", "--preset", "fig2")
        rows = list(csv.reader(io.StringIO(out)))[1:]
        cell = {(r[0], r[2]): r[5] for r in rows}
        assert cell[("CDC", "2")] == "12/25"
        from fractions import Fraction
        assert abs(float(Fraction(cell[("CPC", "2")])) - 0.0544) < 5e-4

    def test_fig4_tracks_only_the_scheme(self, capsys):
        code, out, _ = run(capsys, "sweep", "--preset", "fig4")
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert {r[0] for r in rows} == {"CPC"}
        assert len(rows) == sum(50 - r for r in (2, 3, 4, 5))

    def test_fig5_has_three_cooperation_sizes(self, capsys):
        code, out, _ = run(capsys, "sweep", "--preset", "fig5")
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert {r[4] for r in rows} == {"1", "2", "3"}

    def test_range_starting_at_one_node(self, capsys):
        code, out, _ = run(capsys, "sweep", "--r-range", "1:2", "--K-range", "1:2")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 8 * 3  # (r, K) = (1, 1), (1, 2), (2, 2)
        bound = {(row[1], row[2]): row[5] for row in rows if row[0] == "LowerBound"}
        assert bound == {("1", "1"): "0", ("2", "1"): "1/2", ("2", "2"): "0"}

    def test_missing_grid_exits_two(self, capsys):
        code, _, _ = run(capsys, "sweep")
        assert code == 2

    def test_empty_or_malformed_range_exits_two(self, capsys):
        for r_range, K_range, bad, why in [
            ("5:2", "10", "5:2", "is empty"),
            ("2", "9:4", "9:4", "is empty"),
            ("1:2:3", "5", "1:2:3", "is neither lo:hi nor an integer"),
            ("x", "5", "x", "is neither lo:hi nor an integer"),
            ("1:", "5", "1:", "is neither lo:hi nor an integer"),
        ]:
            code, out, err = run(capsys, "sweep", "--r-range", r_range, "--K-range", K_range)
            assert code == 2 and out == "", r_range
            assert err == f"error: range '{bad}' {why}\n"
        code, out, _ = run(capsys, "sweep", "--r-range", "3:3", "--K-range", "5")
        assert code == 0 and len(out.splitlines()) == 1 + 8

    def test_grid_without_a_cell_exits_two(self, capsys):
        code, out, err = run(capsys, "sweep", "--r-range", "5:6", "--K-range", "2:3")
        assert code == 2 and out == ""
        assert err == "error: --r-range '5:6' and --K-range '2:3' have no cell with r <= K\n"
        # a grid that overlaps r <= K in part keeps just those cells
        code, out, _ = run(capsys, "sweep", "--r-range", "3:6", "--K-range", "2:4")
        assert code == 0
        cells = sorted({(row["K"], row["r"]) for row in csv.DictReader(io.StringIO(out))})
        assert cells == [("3", "3"), ("4", "3"), ("4", "4")]


class TestOptimizeAndBounds:
    def test_optimize_point(self, capsys):
        code, out, _ = run(capsys, "optimize", "--r", "5", "--K", "8")
        rep = json.loads(out)
        assert rep["agree"] is True
        assert rep["brute"] == "21/320"

    def test_optimize_grid(self, capsys):
        code, out, _ = run(capsys, "optimize", "--K-max", "8")
        assert code == 0
        assert all(cell["agree"] for cell in json.loads(out))

    def test_grid_bound_below_two_exits_two(self, capsys):
        for k_max in ("1", "0", "-5"):
            code, out, err = run(capsys, "optimize", "--K-max", k_max)
            assert code == 2, k_max
            assert out == ""
            assert f"cross-validation grid needs K_max >= 2, got {k_max}" in err
        code, out, _ = run(capsys, "optimize", "--K-max", "2")
        assert code == 0 and len(json.loads(out)) == 1

    def test_grid_past_the_cap_exits_two(self, capsys):
        code, out, err = run(capsys, "optimize", "--K-max", "51")
        assert code == 2
        assert out == ""
        assert "cross-validation grid is capped at K_max = 50" in err

    def test_optimize_needs_a_point_or_a_grid(self, capsys):
        for argv in (["optimize"], ["optimize", "--r", "3"]):
            code, _, err = run(capsys, *argv)
            assert code == 2
            assert "optimize needs --r and --K, or --K-max" in err

    def test_bounds(self, capsys):
        code, out, _ = run(capsys, "bounds", "--r", "3", "--K", "6")
        rep = json.loads(out)
        assert rep["bound"] == "1/10"
        assert rep["gap_ratio"] == "35/24"

    def test_bounds_single_node_full_load(self, capsys):
        code, out, _ = run(capsys, "bounds", "--r", "1", "--K", "1")
        assert code == 0
        rep = json.loads(out)
        assert (rep["lb1"], rep["lb2"], rep["bound"], rep["gap_ratio"]) == ("0", "0", "0", "1")


class TestFigures:
    def test_writes_all_presets(self, tmp_path, capsys):
        code, _, _ = run(capsys, "figures", "--out-dir", str(tmp_path))
        assert code == 0
        for name in ("fig2", "fig3", "fig4", "fig5"):
            assert (tmp_path / f"{name}.csv").exists()

    def test_out_dir_on_a_file_exits_two(self, tmp_path, capsys):
        # exit 1 would read as "verification failed"
        target = tmp_path / "taken"
        target.write_text("keep")
        code, out, err = run(capsys, "figures", "--out-dir", str(target))
        assert code == 2 and out == ""
        assert err == f"error: cannot create --out-dir {target}: File exists\n"
        assert target.read_text() == "keep"
