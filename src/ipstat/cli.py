"""Command-line front end: ipstat gen | topk | bench.

Exit codes: 0 success; 1 usage or invalid arguments; 2 input could not be
read or parsed, or a resource ran out (memory for a count block, handle
table or block pool, a count past 64 bits, a full disk under the ssmb
spill); 3 a result failed validation against ground truth.
"""

from __future__ import annotations

import argparse
import sys

from .bench import METHODS, run_bench, run_method, write_csv
from .datagen import DatasetSpec, generate, verify
from .errors import (
    BinaryFormatError,
    CountOverflow,
    GroundTruthMismatch,
    InvalidPlan,
    InvalidSpec,
    MalformedAddress,
    ValidationFailure,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_VALIDATION = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        values = []
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers of at least 1, got {text!r}")
    return values


def _method_list(text: str) -> list[str]:
    methods = [part for part in text.split(",") if part]
    if not methods:
        raise argparse.ArgumentTypeError(f"expected comma-separated methods, got {text!r}")
    # names are checked by run_bench, before it reads any file
    return methods


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ipstat", description="Exact top-k frequency statistics for IPv4 record streams.")
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen", help="generate a synthetic dataset with ground truth")
    gen.add_argument("--records", type=_positive_int, required=True, help="total records to write")
    gen.add_argument("--distinct", type=_positive_int, required=True, help="distinct addresses among them")
    gen.add_argument("--seed", type=int, required=True, help="master seed; same seed, same bytes")
    gen.add_argument("--dist", default="uniform", help="multiplicity distribution: uniform or zipf:EXP")
    gen.add_argument("--first-octet-cap", type=_positive_int, default=256, metavar="Q",
                     help="restrict addresses to first octets below Q")
    gen.add_argument("--format", choices=("text", "binary"), default="text", help="record file format")
    gen.add_argument("--out", required=True, help="dataset path; ground truth goes to <out>.truth")
    gen.set_defaults(func=_cmd_gen)

    topk = commands.add_parser("topk", help="print the k most frequent addresses of a record file")
    topk.add_argument("--method", choices=METHODS, required=True)
    topk.add_argument("--k", type=_positive_int, required=True)
    topk.add_argument("--input", required=True, help="record file (text or binary)")
    workers_help = "in-process threads: tlmb takes 1-256, ssmb any number (at most 256 sweep ranges), hash and ipmap 1"
    topk.add_argument("--workers", type=_positive_int, default=1, help=workers_help)
    topk.add_argument("--format", choices=("auto", "text", "binary"), default="auto",
                      help="input format (default: sniff)")
    topk.set_defaults(func=_cmd_topk)

    bench = commands.add_parser("bench", help="time methods against a dataset and write a CSV")
    bench.add_argument("--input", required=True, help="record file to query")
    bench.add_argument("--truth", required=True, help="ground-truth sidecar to validate against")
    bench.add_argument("--methods", type=_method_list, required=True, metavar="LIST",
                       help=f"comma-separated subset of: {','.join(METHODS)}")
    bench.add_argument("--k", type=_int_list, required=True, metavar="LIST",
                       help="comma-separated k values, e.g. 10,100")
    bench.add_argument("--reps", type=_positive_int, required=True, help="timed repetitions per cell")
    bench.add_argument("--csv", required=True, help="output CSV path")
    bench.add_argument("--workers", type=_positive_int, default=1, help=workers_help)
    bench.add_argument("--warmup", type=_non_negative_int, default=0,
                       help="untimed runs per cell before the timed repetitions")
    bench.set_defaults(func=_cmd_bench)

    check = commands.add_parser("verify", help="recount a dataset against its ground-truth sidecar")
    check.add_argument("--input", required=True)
    check.add_argument("--truth", required=True)
    check.set_defaults(func=_cmd_verify)

    return parser


def _cmd_gen(args) -> int:
    distribution, exponent = DatasetSpec.parse_distribution(args.dist)
    spec = DatasetSpec(
        records=args.records,
        distinct=args.distinct,
        seed=args.seed,
        distribution=distribution,
        zipf_exponent=exponent,
        first_octet_cap=args.first_octet_cap,
        file_format=args.format,
    )
    report = generate(spec, args.out)
    print(f"generated n={report['written_records']} d={report['distinct_written']} file={report['dataset_path']}")
    return EXIT_OK


def _cmd_topk(args) -> int:
    entries, _ = run_method(args.input, args.method, args.k, args.workers, args.format)
    for entry in entries:
        print(f"{entry.address}\t{entry.count}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    rows = run_bench(
        args.input, args.truth, args.methods, args.k, args.reps,
        workers=args.workers, warmup=args.warmup,
    )
    write_csv(args.csv, rows)
    print(f"wrote {len(rows)} rows to {args.csv}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = verify(args.input, args.truth)
    print(
        f"verified n={report['records']} d={report['distinct']} "
        f"counts {report['min_count']}..{report['max_count']} "
        f"mean {report['mean_multiplicity']:.2f}"
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (InvalidSpec, InvalidPlan) as exc:
        print(f"ipstat: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MalformedAddress, BinaryFormatError, CountOverflow, OSError) as exc:
        print(f"ipstat: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        # numpy names the failed allocation; a bare MemoryError says nothing
        print(f"ipstat: error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_INPUT
    except (ValidationFailure, GroundTruthMismatch) as exc:
        print(f"ipstat: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
