"""Command-line front end: construct, verify, simulate, analyze, sweep.

Outputs are deterministic for a given (arguments, seed): JSON is emitted
with sorted keys, CSV rows in a fixed order with the stable header
scheme,K,r,K_r,t,value.  Exit codes: 0 ok, 1 verification failure,
2 invalid input (including an unwritable --out or an --out-dir that
cannot be created), 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction

from .model import (
    MAX_NODES,
    InternalInvariantError,
    ParameterError,
    ShuffleConfig,
    SystemParams,
    validate_config,
)
from .placement import build_placement, map_phase
from .codec import encode_partition, segment_ivs
from .channel import (
    DEFAULT_TOLERANCE,
    check_simulable,
    check_snr,
    check_tolerance,
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


def _instance(args) -> tuple[SystemParams, ShuffleConfig]:
    """Build (params, config) from flags; unpinned (Kr, t) fall back to the
    optimizer's argmin, respecting whichever one the user did pin."""
    K, r = args.K, args.r
    if r == K:
        raise ParameterError(f"r = K = {K}: every IV is local, there is nothing to shuffle")
    N = args.N if args.N is not None else math.comb(K, r)
    Q = args.Q if args.Q is not None else K
    K_r, t = args.Kr, args.t
    if K_r is None or t is None:
        best = ndt.cpc_minimum(r, K, K_r=K_r, t=t)
        K_r, t = best.K_r, best.t
    probe = SystemParams(K=K, N=N, Q=Q, r=r, B=8)
    cfg = validate_config(probe, K_r, t)
    B = args.B if args.B is not None else simulation_bits(cfg, 8)
    params = SystemParams(K=K, N=N, Q=Q, r=r, B=B)
    return params, validate_config(params, K_r, t)


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


def _full_load(args) -> bool:
    """True when r = K: every IV is local and there is nothing to shuffle.
    K is range-checked first, since that answer skips `SystemParams`."""
    if not 1 <= args.K <= MAX_NODES:
        raise ParameterError(f"K must lie in [1, {MAX_NODES}], got {args.K}")
    return args.r == args.K


def cmd_construct(args) -> int:
    if _full_load(args):
        # everything is local: nothing to shuffle
        _emit(args, _json({"params": {"K": args.K, "r": args.r}, "partitions": [],
                           "messages": [], "placement": None}))
        return EXIT_OK
    params, cfg = _instance(args)
    placement = build_placement(params)
    store = map_phase(placement, params, args.seed)
    segments = segment_ivs(placement, cfg, store)
    partitions = segments.partitions
    dump = {
        "params": {"K": params.K, "N": params.N, "Q": params.Q, "r": params.r,
                   "B": params.B, "K_r": cfg.K_r, "t": cfg.t, "s": cfg.s,
                   "seed": args.seed},
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
    for part in partitions:
        for m in encode_partition(segments, part, cfg):
            entry = {
                "p": m.partition,
                "D": list(m.dest_group.members),
                "B": list(m.coop.members),
                "segments": [
                    {"dest": sid.dest, "storage": list(sid.storage.members)}
                    for sid in m.constituents()
                ],
            }
            if args.with_payloads:
                entry["payload"] = m.payload.hex()
            dump["messages"].append(entry)
    _emit(args, _json(dump))
    return EXIT_OK


def cmd_verify(args) -> int:
    check_tolerance(args.tolerance)  # here, since the --ideal path never reads it
    if _full_load(args):
        # every IV is local: nothing to shuffle, trivially correct
        _emit(args, _json({"ok": True, "failures": [], "partitions": 0}))
        return EXIT_OK
    params, cfg = _instance(args)
    corrupt = (1, 0) if args.fault else None
    if args.ideal:
        ok, report = ideal_verify(params, cfg, args.seed, corrupt=corrupt)
    else:
        ok, report = end_to_end_verify(
            params, cfg, args.seed, tol=args.tolerance, corrupt=corrupt
        )
    _emit(args, _json(report.summary()))
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_simulate(args) -> int:
    if args.snr is not None:
        check_snr(args.snr)
    check_tolerance(args.tolerance)
    params, cfg = _instance(args)
    check_simulable(cfg)
    placement = build_placement(params)
    store = map_phase(placement, params, args.seed)
    segments = segment_ivs(placement, cfg, store)
    partitions = segments.partitions
    if not 1 <= args.partition <= len(partitions):
        raise ParameterError(
            f"partition index {args.partition} out of [1, {len(partitions)}]"
        )
    part = partitions[args.partition - 1]
    messages = encode_partition(segments, part, cfg)
    report = simulate_with_resample(
        part, cfg, messages, args.seed, tol=args.tolerance, snr_db=args.snr
    )
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


def _sweep_grid(args) -> list[tuple]:
    """(r, K, t, all_schemes) cells for the requested sweep.

    fig2 and fig3 tabulate every scheme plus the bound; fig4 follows the
    optimized scheme across K for several loads; fig5 pins the cooperation
    size t instead of optimizing it.
    """
    if args.preset == "fig2":
        return [(r, 50, None, True) for r in range(1, 51)]
    if args.preset == "fig3":
        return [(2, K, None, True) for K in range(3, 51)]
    if args.preset == "fig4":
        return [(r, K, None, False) for r in (2, 3, 4, 5) for K in range(r + 1, 51)]
    if args.preset == "fig5":
        return [
            (r, K, t, False)
            for t in (1, 2, 3)
            for r in range(4, 11)
            for K in range(25, 51)
        ]
    if args.r_range is None or args.K_range is None:
        raise ParameterError("sweep needs --preset or both --r-range and --K-range")
    cells = [
        (r, K, None, True)
        for r in _parse_range(args.r_range)
        for K in _parse_range(args.K_range)
        if r <= K
    ]
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
    for preset in ("fig2", "fig3", "fig4", "fig5"):
        ns = argparse.Namespace(
            preset=preset, r_range=None, K_range=None, format="csv",
            out=os.path.join(args.out_dir, f"{preset}.csv"),
        )
        cmd_sweep(ns)
        print(f"wrote {ns.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpcshuffle",
        description="Coded parallel-computing shuffle: construction, verification, analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build the scheme and dump it as JSON")
    _add_instance_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--with-payloads", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run the pipeline and check byte-exact recovery")
    _add_instance_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ideal", action="store_true", help="skip the channel (XOR only)")
    p.add_argument("--fault", action="store_true", help="inject a payload corruption")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="simulate one partition's delivery")
    _add_instance_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--partition", type=int, default=1)
    p.add_argument("--snr", type=float, default=None, help="optional noise level (dB)")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ndt", help="evaluate every scheme at one (r, K)")
    p.add_argument("--r", required=True, help="load, integer or fraction like 5/2")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ndt)

    p = sub.add_parser("sweep", help="grid sweep over (r, K), presets regenerate figures")
    p.add_argument("--preset", choices=("fig2", "fig3", "fig4", "fig5"))
    p.add_argument("--r-range", help="like 1:10")
    p.add_argument("--K-range", help="like 2:50")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("optimize", help="closed-form vs exhaustive minimum")
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


if __name__ == "__main__":
    sys.exit(main())
