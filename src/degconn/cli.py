"""Command-line harness.

Subcommands: check, sample, explore, census, oracle, tightness.  All
randomness derives from --seed through fixed-size batch streams (see
streams.py), so any command with the same flags is byte-identical across
runs and across --threads values.  Exit codes: 0 success, 1 usage, 2
infeasible input, 3 sampler exhaustion, 4 size guard (exact oracle or
switch-chain memory).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from . import census as census_mod
from . import families
from .degseq import (DegreeSequence, compute_invariants, load_sequence_file,
                     parse_sequence_text, theorem1_bound)
from .errors import DegconnError, InfeasibleFamily, TrialsTooFew
from .explore import explore_revealing
from .graphs import matching_edges
from .sampler import DEFAULT_MAX_ATTEMPTS, chain_steps
from .streams import BATCH_SIZE, batch_ranges, substream

SCHEMA_VERSION = census_mod.SCHEMA_VERSION


class UsageError(DegconnError):
    """Bad command-line input (exit 1)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the harness reserves 2 for infeasible
    # input, so usage problems are rethrown and mapped to exit 1
    def error(self, message):
        raise UsageError(message)


def _parse_family(spec: str) -> DegreeSequence:
    """Family spec 'name' or 'name:k=v,k=v', e.g. regular:d=3,n=10."""
    name, _, rest = spec.partition(":")
    params: Dict[str, int] = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not key or not val:
                raise UsageError(f"bad family parameter {item!r}")
            try:
                params[key.strip()] = int(val)
            except ValueError:
                raise UsageError(f"family parameter {item!r} is not an integer")
    return families.family_from_args(name.strip(), params)


def _resolve_sequence(args) -> DegreeSequence:
    if args.family is not None:
        return _parse_family(args.family)
    if args.seq is None and args.seq_file is None:
        raise UsageError("one of --seq, --seq-file, --family is required")
    try:
        degrees = (parse_sequence_text(args.seq) if args.seq is not None
                   else load_sequence_file(args.seq_file))
    except (ValueError, OSError) as exc:
        # malformed text, bad JSON or an unreadable file
        raise UsageError(f"cannot read the degree sequence: {exc}") from exc
    return DegreeSequence(degrees)


def _resolve_sampler(choice: str, seqs: Sequence[DegreeSequence]) -> str:
    """auto: the switch chain when the estimated simple-graph acceptance
    rate exp(-nu/2 - nu^2/4), nu = sum d(d-1)/(2m), of any of `seqs` is
    below 1%, else rejection."""
    if choice != "auto":
        return choice
    nus = (sum(d * (d - 1) for d in s.degrees) / (2 * s.m) for s in seqs)
    dense = any(math.exp(-nu / 2 - nu * nu / 4) < 0.01 for nu in nus)
    return "switch-chain" if dense else "rejection"


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        sys.stdout.write(f"wrote {args.out}\n")
    else:
        sys.stdout.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _config_dict(args, command: str, seq: Optional[DegreeSequence],
                 **extra) -> Dict[str, object]:
    # threads is deliberately not recorded: parallelism cannot change any
    # statistic, and reports must be byte-identical across thread counts
    cfg: Dict[str, object] = {"command": command,
                              "schema_version": SCHEMA_VERSION}
    if seq is not None:
        cfg["degrees"] = list(seq.degrees)
    for key in ("seed", "trials", "sampler", "steps", "family", "format"):
        if hasattr(args, key) and getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    cfg.update(extra)
    return cfg


def cmd_check(args) -> int:
    seq = _resolve_sequence(args)
    inv = compute_invariants(seq)
    bound = theorem1_bound(inv)
    payload = {
        "config": _config_dict(args, "check", seq),
        "graphical": seq.graphical,
        "n": seq.n,
        "m": seq.m,
        "invariants": inv.to_json_dict(),
        "bound": _frac_str(bound),
        "bound_float": float(bound),
    }
    if args.format == "json":
        _emit(args, _dump_json(payload))
    else:
        lines = ["key,value",
                 f"graphical,{seq.graphical}", f"n,{seq.n}", f"m,{seq.m}"]
        for k, v in inv.to_json_dict().items():
            lines.append(f"{k},{v}")
        lines.append(f"bound,{_frac_str(bound)}")
        lines.append(f"bound_float,{float(bound)!r}")
        _emit(args, "\n".join(lines) + "\n")
    return 0 if seq.graphical else 2


def cmd_sample(args) -> int:
    seq = _resolve_sequence(args)
    sampler = _resolve_sampler(args.sampler, [seq])
    steps = chain_steps(args.steps, seq.m)
    graphs: List[List[List[int]]] = []
    for b, start, stop in batch_ranges(args.trials, BATCH_SIZE):
        lo, hi, _ = census_mod.sample_batch(seq, sampler, stop - start,
                                            substream(args.seed, b), steps,
                                            args.max_attempts)
        graphs += [[[a, b] for a, b in zip(row_lo, row_hi)]
                   for row_lo, row_hi in zip(lo.tolist(), hi.tolist())]
    if args.format == "json":
        payload = {
            "config": _config_dict(
                args, "sample", seq, resolved_sampler=sampler,
                resolved_steps=steps if sampler == "switch-chain" else None),
            "n": seq.n,
            "graphs": [{"n": seq.n, "edges": g} for g in graphs],
        }
        _emit(args, _dump_json(payload))
    else:
        lines = ["trial,u,v"]
        for t, g in enumerate(graphs):
            lines.extend(f"{t},{a},{b}" for a, b in g)
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_explore(args) -> int:
    # the multigraph mode draws a matching, with no sampler to configure
    given = [flag for flag, value in (("--sampler", args.sampler),
                                      ("--max-attempts", args.max_attempts),
                                      ("--steps", args.steps))
             if value is not None]
    if args.mode == "multigraph" and given:
        raise UsageError(f"explore --mode multigraph does not take "
                         f"{' or '.join(given)}")
    if args.sampler is None:
        args.sampler = "auto"
    if args.max_attempts is None:
        args.max_attempts = DEFAULT_MAX_ATTEMPTS
    seq = _resolve_sequence(args)
    if not 1 <= args.start <= seq.n:
        raise UsageError(f"--start must be in 1..{seq.n}, got {args.start}")
    trace, drawn = explore_revealing(
        seq, substream(args.seed, 0), args.start, mode=args.mode,
        sampler=_resolve_sampler(args.sampler, [seq]),
        max_attempts=args.max_attempts, steps=args.steps)
    if args.format == "csv":
        _emit(args, trace.to_csv_text())
    else:
        edges = (matching_edges(seq, drawn) if args.mode == "multigraph"
                 else drawn.edges())
        payload = {
            "config": _config_dict(args, "explore", seq, mode=args.mode,
                                   start=args.start),
            "trace": trace.to_json_dict(),
            "graph": {"n": seq.n, "edges": [[u, v] for u, v in edges]},
        }
        _emit(args, _dump_json(payload))
    return 0


def cmd_census(args) -> int:
    seq = _resolve_sequence(args)
    sampler = _resolve_sampler(args.sampler, [seq])
    report = census_mod.estimate_disconnection(
        seq, args.trials, args.seed, sampler=sampler, steps=args.steps,
        threads=args.threads, max_attempts=args.max_attempts)
    if args.format == "json":
        payload = report.to_json_dict()
        payload["config"] = _config_dict(args, "census", seq,
                                         resolved_sampler=sampler)
        _emit(args, _dump_json(payload))
    else:
        _emit(args, report.to_csv_text())
    return 0


def cmd_oracle(args) -> int:
    seq = _resolve_sequence(args)
    result = census_mod.exact_connectivity_oracle(seq)
    means = {k: _frac_str(v) for k, v in result.taxonomy_means().items()}
    payload = {
        "config": _config_dict(args, "oracle", seq),
        "probability_connected": _frac_str(result.probability_connected),
        "probability_connected_float": float(result.probability_connected),
        "probability_disconnected":
            _frac_str(1 - result.probability_connected),
        "realization_count": result.realization_count,
        "taxonomy_means": means,
    }
    if args.format == "json":
        _emit(args, _dump_json(payload))
    else:
        lines = ["key,value"]
        for k in ("probability_connected", "probability_connected_float",
                  "probability_disconnected", "realization_count"):
            lines.append(f"{k},{payload[k]}")
        for cls, v in means.items():
            lines.append(f"mean_{cls},{v}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_tightness(args) -> int:
    if args.family is None:
        raise UsageError("tightness requires --family")
    name = args.family.partition(":")[0]
    if name not in families.TIGHTNESS_FAMILIES:
        raise InfeasibleFamily(f"no tightness family {name!r}; choose from "
                               f"{sorted(families.TIGHTNESS_FAMILIES)}")
    family = families.TIGHTNESS_FAMILIES[name]
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise UsageError(f"--sizes takes comma-separated integers, "
                         f"got {args.sizes!r}")
    # one sampler per table: the chain when any size needs it
    sampler = _resolve_sampler(args.sampler, [family(s) for s in sizes])
    table = census_mod.tightness_experiment(
        family, sizes, args.trials, args.seed,
        family_name=name, sampler=sampler, threads=args.threads)
    if args.format == "csv":
        _emit(args, table.to_csv_text())
    else:
        payload = table.to_json_dict()
        payload["config"] = _config_dict(args, "tightness", None, sizes=sizes)
        _emit(args, _dump_json(payload))
    return 0


def build_parser() -> _Parser:
    seq_flags = argparse.ArgumentParser(add_help=False)
    grp = seq_flags.add_mutually_exclusive_group()
    grp.add_argument("--seq", help="inline degree sequence, e.g. '3 3 3 3' or JSON")
    grp.add_argument("--seq-file", help="file containing the degree sequence")
    grp.add_argument("--family",
                     help="named family, e.g. regular:d=3,n=10 "
                          "(regular, with-leaves, with-twos, two-stars, star)")

    # each subcommand takes only the run flags its handler reads
    run_flags = {
        "--trials": dict(type=int, default=1000),
        "--seed": dict(type=int, default=0),
        "--sampler": dict(choices=["rejection", "switch-chain", "auto"],
                          default="auto"),
        "--steps": dict(type=int, default=None,
                        help="switch-chain step override"),
        "--threads": dict(type=int, default=1),
        "--max-attempts": dict(type=int, default=DEFAULT_MAX_ATTEMPTS),
    }

    def add_run_flags(p, *names):
        for name in names:
            p.add_argument(name, **run_flags[name])

    out_flags = argparse.ArgumentParser(add_help=False)
    out_flags.add_argument("--out", help="write the report to this file")
    out_flags.add_argument("--format", choices=["json", "csv"],
                           default="json")
    out_flags.add_argument("--error-json", action="store_true",
                           help="emit errors as JSON on stdout")

    parser = _Parser(prog="degconn",
                     description="degree-sequence graph sampling and "
                                 "connectivity experiments")
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("check", parents=[seq_flags, out_flags],
                   help="graphicality and invariant report")
    p = sub.add_parser("sample", parents=[seq_flags, out_flags],
                       help="draw uniform simple graphs")
    add_run_flags(p, "--trials", "--seed", "--sampler", "--steps",
                  "--max-attempts")
    p.set_defaults(trials=1)
    p = sub.add_parser("explore", parents=[seq_flags, out_flags],
                       help="run one instrumented exploration")
    add_run_flags(p, "--seed", "--sampler", "--steps", "--max-attempts")
    p.add_argument("--start", type=int, default=1)
    p.add_argument("--mode", choices=["simple-conditioned", "multigraph"],
                   default="simple-conditioned")
    # unset until cmd_explore, so it can tell a flag given from its default
    p.set_defaults(sampler=None, max_attempts=None)
    p = sub.add_parser("census", parents=[seq_flags, out_flags],
                       help="Monte Carlo disconnection census")
    add_run_flags(p, *run_flags)
    sub.add_parser("oracle", parents=[seq_flags, out_flags],
                   help="exact small-sequence connectivity oracle")
    p = sub.add_parser("tightness", parents=[seq_flags, out_flags],
                       help="small-component means vs bounds across a family")
    add_run_flags(p, "--trials", "--seed", "--sampler", "--threads")
    p.add_argument("--sizes", default="60,120,240",
                   help="comma-separated family size parameters")
    return parser


_HANDLERS = {
    "check": cmd_check,
    "sample": cmd_sample,
    "explore": cmd_explore,
    "census": cmd_census,
    "oracle": cmd_oracle,
    "tightness": cmd_tightness,
}


def _report_error(exc: DegconnError, as_json: bool) -> int:
    if as_json:
        sys.stdout.write(_dump_json(
            {"error": {"type": type(exc).__name__, "message": str(exc),
                       "exit_code": exc.exit_code}}))
    else:
        kind = "usage error" if isinstance(exc, UsageError) else "error"
        sys.stderr.write(f"{kind}: {exc}\n")
    return exc.exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        # a failed parse sets no flags, so --error-json is read from argv
        return _report_error(exc, "--error-json" in argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        for flag in ("threads", "max_attempts"):
            value = getattr(args, flag, None)
            if value is not None and value < 1:
                raise UsageError(f"--{flag.replace('_', '-')} must be >= 1, "
                                 f"got {value}")
        if getattr(args, "trials", 1) < 1:
            raise TrialsTooFew("trials must be >= 1")
        return _HANDLERS[args.command](args)
    except DegconnError as exc:
        return _report_error(exc, getattr(args, "error_json", False))


if __name__ == "__main__":
    sys.exit(main())
