"""Command-line front end: construct, verify, simulate, analyze, sweep.

construct, verify and simulate share one instance builder: it checks every
flag before any search, and at r = K refuses a pin and builds no config.

Outputs are deterministic for a given (arguments, seed): JSON is emitted
with sorted keys, CSV rows in a fixed order with the stable header
scheme,K,r,K_r,t,value.  Exit codes: 0 ok, 1 verification failure,
2 invalid input (including an unwritable --out or an --out-dir that
cannot be created), 3 internal invariant breach or a channel whose
redraw trips the condition guard again.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from fractions import Fraction

from .model import (
    InternalInvariantError,
    NodeSet,
    ParameterError,
    ShuffleConfig,
    SystemParams,
    check_config,
    check_load,
    check_nodes,
    validate_config,
)
from .placement import build_placement, check_seed, map_phase
from .codec import check_bits, encode_payloads, segment_ivs
from .channel import (
    ChannelConditionError,
    check_simulable,
    check_snr,
    end_to_end_verify,
    ideal_verify,
    simulate_with_resample,
    simulation_bits,
)
from . import ndt
from .optimize import brute_force_min, closed_form_min, cross_validate, t1_optimal_regime

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_CONFIG = 2
EXIT_INTERNAL = 3

CSV_HEADER = ["scheme", "K", "r", "K_r", "t", "value"]


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--K", type=int, required=True, help="number of nodes")
    p.add_argument("--N", type=int, help="number of input files (default C(K,r))")
    p.add_argument("--Q", type=int, help="number of output functions (default K)")
    p.add_argument("--r", type=int, required=True, help="computation load")
    p.add_argument("--B", type=int, help="bits per IV (default: smallest valid)")
    p.add_argument("--Kr", type=int, help="receiver group size (default optimal)")
    p.add_argument("--t", type=int, help="cooperation size (default optimal)")
    p.add_argument("--seed", type=int, default=0)


def _instance(args) -> ShuffleConfig | None:
    """The config the instance flags name, or None at r = K, where every IV
    is local and no (K_r, t) is valid.  The flags are checked in one fixed
    order before any search: K, r, the pins, N/Q/B, the seed.  Unpinned
    (K_r, t) take the optimizer's argmin around any pinned one."""
    K, r, K_r, t = args.K, args.r, args.Kr, args.t
    check_nodes(K)
    check_load(r, K)
    full_load = r == K
    if full_load and (K_r is not None or t is not None):
        raise ndt.no_valid_config(r, K, K_r, t)
    if K_r is not None and t is not None:
        check_config(K, r, K_r, t)
    N = args.N if args.N is not None else math.comb(K, r)
    Q = args.Q if args.Q is not None else K
    params = SystemParams(K=K, N=N, Q=Q, r=r, B=8 if args.B is None else args.B)
    params.require_symmetric()
    check_seed(args.seed)
    if full_load:
        return None
    if K_r is None or t is None:
        best = ndt.cpc_minimum(r, K, K_r=K_r, t=t)
        K_r, t = best.K_r, best.t
    if args.B is None:  # the least B the channel path can split
        B = simulation_bits(validate_config(params, K_r, t), 8)
        params = SystemParams(K=K, N=N, Q=Q, r=r, B=B)
    return validate_config(params, K_r, t)


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as f:
                f.write(text)
        except OSError as e:
            raise ParameterError(f"cannot write --out {args.out}: {e.strerror}") from None
    else:
        sys.stdout.write(text)


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit_rows(args, rows: list[list]) -> None:
    """Write `rows` under CSV_HEADER as CSV, or as JSON objects keyed by it."""
    if args.format == "json":
        _emit(args, _json([dict(zip(CSV_HEADER, row)) for row in rows]))
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)
    _emit(args, buf.getvalue())


def cmd_construct(args) -> int:
    cfg = _instance(args)
    if cfg is None:
        _emit(args, _json({"params": {"K": args.K, "r": args.r}, "partitions": [],
                           "messages": [], "placement": None}))
        return EXIT_OK
    check_bits(cfg)
    placement = build_placement(cfg.params)
    store = map_phase(placement, cfg.params, args.seed)
    segments = segment_ivs(placement, cfg, store)
    partitions = segments.partitions
    dump = {
        "params": cfg.summary(args.seed),
        "placement": {
            "file_to_nodes": {str(n): list(g.members)
                              for n, g in sorted(placement.file_to_nodes.items())},
            "reduce_assignment": {str(k): sorted(v)
                                  for k, v in placement.reduce_assignment.items()},
        },
        "partitions": [
            {"p": part.index, "tx": list(part.tx.members), "rx": list(part.rx.members)}
            for part in partitions
        ],
        "messages": [],
    }
    # each message is read off its s table rows: row i is a segment of
    # block (j, U) = blocks[i // per_block], D is the rows' dests and
    # B = (U | {j}) - D, which is U - D for any of the rows
    for part in partitions:
        payloads = encode_payloads(segments, part, cfg)
        for rows, payload in zip(segments.messages[part.index - 1], payloads):
            blocks = [segments.blocks[row // segments.per_block] for row in rows]
            dest_group = NodeSet.from_iterable(j for j, _storage in blocks)
            entry = {
                "p": part.index,
                "D": list(dest_group.members),
                "B": list((blocks[0][1] - dest_group).members),
                "segments": [{"dest": j, "storage": list(u.members)} for j, u in blocks],
            }
            if args.with_payloads:
                entry["payload"] = payload.tobytes().hex()
            dump["messages"].append(entry)
    _emit(args, _json(dump))
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _instance(args)
    if cfg is None:
        _emit(args, _json({"ok": True, "failures": [], "partitions": 0}))
        return EXIT_OK
    corrupt = (1, 0) if args.fault else None
    verify = ideal_verify if args.ideal else end_to_end_verify
    ok, report = verify(cfg.params, cfg, args.seed, corrupt=corrupt)
    _emit(args, _json(report.summary()))
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_simulate(args) -> int:
    if args.snr is not None:
        check_snr(args.snr)
    cfg = _instance(args)
    if cfg is None:
        raise ParameterError(f"r = K = {args.K}: every IV is local, there is nothing to shuffle")
    check_simulable(cfg)
    n_parts = math.comb(args.K, cfg.K_t)
    if not 1 <= args.partition <= n_parts:
        raise ParameterError(f"partition index {args.partition} out of [1, {n_parts}]")
    placement = build_placement(cfg.params)
    store = map_phase(placement, cfg.params, args.seed)
    segments = segment_ivs(placement, cfg, store)
    part = segments.partitions[args.partition - 1]
    payloads = encode_payloads(segments, part, cfg)
    report = simulate_with_resample(part, cfg, payloads, args.seed, args.snr)
    _emit(args, _json(report.summary()))
    return EXIT_OK


def _parse_r(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParameterError(f"r={text} has a zero denominator") from None


def _point_rows(r, K: int) -> list[list]:
    return [ndt.scheme_point(scheme, r, K).csv_row() for scheme in ndt.SCHEMES]


def cmd_ndt(args) -> int:
    _emit_rows(args, _point_rows(_parse_r(args.r), args.K))
    return EXIT_OK


def _parse_range(text: str) -> list[int]:
    """An inclusive range lo:hi with lo <= hi, or one integer."""
    lo, sep, hi = text.partition(":")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise ParameterError(f"range {text!r} is neither lo:hi nor an integer") from None
    if lo > hi:
        raise ParameterError(f"range {text!r} is empty")
    return list(range(lo, hi + 1))


# The figure presets: name -> its (r, K, t, all_schemes) cells.  fig2 and fig3
# tabulate every scheme plus the bound; fig4 follows the optimized scheme
# across K for several loads; fig5 pins the cooperation size t instead.
PRESETS = {
    "fig2": lambda: [(r, 50, None, True) for r in range(1, 51)],
    "fig3": lambda: [(2, K, None, True) for K in range(3, 51)],
    "fig4": lambda: [(r, K, None, False) for r in (2, 3, 4, 5) for K in range(r + 1, 51)],
    "fig5": lambda: [(r, K, t, False) for t in (1, 2, 3) for r in range(4, 11)
                     for K in range(25, 51)],
}


def _sweep_grid(args) -> list[tuple]:
    """(r, K, t, all_schemes) cells of a preset, or of the r <= K range grid."""
    if args.preset is not None:
        return PRESETS[args.preset]()
    if args.r_range is None or args.K_range is None:
        raise ParameterError("sweep needs --preset or both --r-range and --K-range")
    rs, Ks = _parse_range(args.r_range), _parse_range(args.K_range)
    cells = [(r, K, None, True) for r in rs for K in Ks if r <= K]
    if not cells:
        raise ParameterError(
            f"--r-range '{args.r_range}' and --K-range '{args.K_range}' have no cell with r <= K"
        )
    return cells


def _sweep_cell(cell) -> list[list]:
    r, K, t, all_schemes = cell
    if all_schemes:
        return _point_rows(r, K)
    return [ndt.cpc_minimum(r, K, t=t).csv_row()]


def cmd_sweep(args) -> int:
    _emit_rows(args, [row for cell in _sweep_grid(args) for row in _sweep_cell(cell)])
    return EXIT_OK


def cmd_optimize(args) -> int:
    if args.K_max is not None:
        report = cross_validate(args.K_max)
        _emit(args, _json(report))
        return EXIT_OK
    if args.r is None or args.K is None:
        raise ParameterError("optimize needs --r and --K, or --K-max")
    brute = brute_force_min(args.r, args.K)
    closed = closed_form_min(args.r, args.K)
    out = {
        "r": args.r,
        "K": args.K,
        "brute": str(brute.best_value),
        "closed": str(closed.best_value),
        "K_r": closed.K_r_star,
        "t": closed.t_star,
        "branch": closed.branch,
        "agree": brute.best_value == closed.best_value,
        "t1_regime": t1_optimal_regime(args.r, args.K),
    }
    _emit(args, _json(out))
    return EXIT_OK if out["agree"] else EXIT_INTERNAL


def cmd_bounds(args) -> int:
    r = _parse_r(args.r)
    model = ndt.lower_bound(r, args.K)
    out = {
        "r": str(r),
        "K": args.K,
        "lb1": str(model.lb1),
        "lb2": str(model.lb2),
        "bound": str(model.bound),
        "gap_ratio": str(ndt.gap_ratio(r, args.K)),
    }
    _emit(args, _json(out))
    return EXIT_OK


def cmd_figures(args) -> int:
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as e:
        raise ParameterError(f"cannot create --out-dir {args.out_dir}: {e.strerror}") from None
    for preset in PRESETS:
        out = os.path.join(args.out_dir, f"{preset}.csv")
        ns = argparse.Namespace(preset=preset, r_range=None, K_range=None, format="csv", out=out)
        cmd_sweep(ns)
        print(f"wrote {ns.out}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and then reused."""
    parser = argparse.ArgumentParser(
        prog="cpcshuffle",
        description="Coded parallel-computing shuffle: construction, verification, analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build the scheme and dump it as JSON")
    _add_instance_flags(p)
    p.add_argument("--with-payloads", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run the pipeline and check byte-exact recovery")
    _add_instance_flags(p)
    p.add_argument("--ideal", action="store_true", help="skip the channel (XOR only)")
    p.add_argument("--fault", action="store_true", help="inject a payload corruption")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="simulate one partition's delivery")
    _add_instance_flags(p)
    p.add_argument("--partition", type=int, default=1)
    p.add_argument("--snr", type=float, default=None, help="optional noise level (dB)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ndt", help="evaluate every scheme at one (r, K)")
    p.add_argument("--r", required=True, help="load, integer or fraction like 5/2")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ndt)

    p = sub.add_parser("sweep", help="grid sweep over (r, K), presets regenerate figures")
    p.add_argument("--preset", choices=PRESETS)
    p.add_argument("--r-range", help="like 1:10")
    p.add_argument("--K-range", help="like 2:50")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("optimize", help="closed-form vs exact-scan minimum")
    p.add_argument("--r", type=int)
    p.add_argument("--K", type=int)
    p.add_argument("--K-max", type=int, help="cross-validate the whole grid up to K")
    p.add_argument("--out")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("bounds", help="lower bound and achievable gap at (r, K)")
    p.add_argument("--r", required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("figures", help="write all figure-preset CSVs")
    p.add_argument("--out-dir", default="figures")
    p.set_defaults(func=cmd_figures)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:  # ParameterError, ConstraintViolation, InfeasibleInstance
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except (InternalInvariantError, AssertionError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except ChannelConditionError as e:
        print(f"channel error: {e}, after one redraw", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
