"""Command-line front door: check, partition, decompose, gen, bench.

Inputs are graph6 (default, one graph per line, so corpora can be piped
through) or a single edge-list file.  Results go to stdout as one JSON
object per input record, in input order, each printed once it is answered;
diagnostics go to stderr.  Exit codes are uniform: 0 = yes, 1 = certified
no, 2 = error, and a run exits with the largest code over its records.  A
malformed record answers with {"reason", "line", "offset"} in its slot and
exit code 2, and the records after it are still answered.  Parameter errors
and bugs end the run at once: each command checks its parameters before it
reads the first record, so an empty input fails them too.

Start-up is part of every call, so this module imports only what reading
records needs, and each command imports the engines it runs: ``check``
loads the sparsity engine alone, ``partition`` adds the matroid union, and
only ``bench`` loads the instance generator and ``hashlib``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import GraphFormatError, NotSparseError, SparsityForgeError, VerificationError
from .graphs import parse_edgelist, parse_graph6

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2


def _records(args):
    """Each input record as a Graph, or as the GraphFormatError it raised."""
    if args.input and args.input != "-":
        with open(args.input, "rb") as fh:
            data = fh.read()
    else:
        data = sys.stdin.buffer.read()
    if args.format == "edgelist":
        try:
            yield parse_edgelist(data.decode("ascii"))
        except UnicodeDecodeError as exc:
            # lines break as in parse_edgelist; the offending byte ends the last one
            line = len((data[: exc.start].decode("ascii") + "?").splitlines())
            yield GraphFormatError(f"non-ASCII byte {data[exc.start]:#04x}", exc.start, line=line)
        except GraphFormatError as exc:
            yield exc
        return
    start = 0  # byte offset of the current line in the whole input
    for lineno, line in enumerate(data.splitlines(keepends=True), 1):
        record = line.strip()
        if record:
            try:
                yield parse_graph6(record)
            except GraphFormatError as exc:
                offset = start + len(line) - len(line.lstrip()) + exc.offset
                yield GraphFormatError(exc.reason, offset, line=lineno)
        start += len(line)


def _answer_each(args, answer) -> int:
    """Print one JSON object per record as ``answer(graph) -> (dict, exit code)``
    makes it; return the largest exit code over the records."""
    status = EXIT_YES
    for g in _records(args):
        if isinstance(g, GraphFormatError):
            record, code = {"reason": g.reason, "line": g.line, "offset": g.offset}, EXIT_ERROR
            print(f"error: {g}", file=sys.stderr)
        else:
            record, code = answer(g)
        print(json.dumps(record))
        status = max(status, code)
    return status


def _add_io_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", nargs="?", default="-", help="input path or '-' for stdin")
    p.add_argument(
        "--format",
        choices=("graph6", "edgelist"),
        default="graph6",
        help="graph6: one graph per line (default); edgelist: single graph",
    )


def verify_decomposition(d):
    """decompose.verify_decomposition, imported when called: loading the CLI
    does not load the decomposition engine."""
    from .decompose import verify_decomposition

    return verify_decomposition(d)


def cmd_check(args) -> int:
    from .rationals import parse_rational
    from .sparsity import SparsityParams, _require_regular, is_sparse

    params = SparsityParams(parse_rational(args.a), parse_rational(args.b))
    _require_regular(params)

    def answer(g):
        cert = is_sparse(g, params)
        return cert.to_json_dict(), EXIT_YES if cert.sparse else EXIT_NO

    return _answer_each(args, answer)


def cmd_decompose(args) -> int:
    from .decompose import _above_one, decompose_ksw
    from .rationals import parse_rational

    m = _above_one(parse_rational(args.m))

    def answer(g):
        t0 = time.perf_counter()
        try:
            d = decompose_ksw(g, m)
        except NotSparseError as exc:
            return exc.certificate.to_json_dict(), EXIT_NO
        t1 = time.perf_counter()
        verified = bool(verify_decomposition(d)) if args.verify else None
        t2 = time.perf_counter()
        out = d.to_json_dict(verified=verified)
        if args.trace:
            timing = {"decompose": (t1 - t0) * 1e3, "verify": (t2 - t1) * 1e3}
            out["timing_ms"] = {k: round(v, 3) for k, v in timing.items()}
        return out, EXIT_ERROR if verified is False else EXIT_YES

    return _answer_each(args, answer)


def cmd_partition(args) -> int:
    from .matroid import _regime
    from .partition import partition_sparse

    _regime(args.a1, args.b1)
    _regime(args.a2, args.b2)

    def answer(g):
        try:
            result = partition_sparse(
                g, args.a1, args.b1, args.a2, args.b2, minimize_certificate=args.minimize
            )
        except NotSparseError as exc:
            return exc.certificate.to_json_dict(), EXIT_NO
        return result.to_json_dict(), EXIT_YES if result.success else EXIT_NO

    return _answer_each(args, answer)


def cmd_gen(args) -> int:
    from .graphs import (
        gen_counterexample_disconnected,
        gen_counterexample_glued_trees,
        gen_counterexample_ring,
        write_graph6,
    )

    if args.family == "disconnected":
        g = gen_counterexample_disconnected(args.a1, args.a2, args.n, args.t)
    elif args.family == "glued-trees":
        g = gen_counterexample_glued_trees(args.a)
    else:
        g = gen_counterexample_ring(args.a, args.t)
    print(write_graph6(g))
    return EXIT_YES


def cmd_bench(args) -> int:
    if args.suite != "decompose":
        raise ValueError(f"unknown bench suite {args.suite!r}; available: decompose")
    import hashlib
    import random

    from .decompose import decompose_ksw
    from .graphs import write_graph6
    from .instances import random_sparse_graph
    from .rationals import format_rational, parse_rational

    ms = [parse_rational(text) for text in args.m.split(",") if text]
    sizes = [int(s) for s in args.sizes.split(",") if s]
    print(f"{'n':>6} {'e':>7} {'hash':>12} {'gen_ms':>9} {'split_ms':>9} "
          f"{'verify_ms':>9} {'total_ms':>9}  case m")
    for m, n in [(m, n) for m in ms for n in sizes]:
        g, gen_ms = _timed(lambda: random_sparse_graph(n, m, random.Random(args.seed + n)))
        try:  # decompose_ksw gates the host on (m, 0) itself
            d, split_ms = _timed(lambda: decompose_ksw(g, m))
        except NotSparseError:
            raise VerificationError(
                f"generated host n={n} is not ({format_rational(m)}, 0)-sparse"
            ) from None
        report, verify_ms = _timed(lambda: verify_decomposition(d))
        if not report:
            raise VerificationError(f"decomposition of host n={n} failed verify_decomposition")
        digest = hashlib.sha256(write_graph6(g).encode()).hexdigest()[:12]
        print(
            f"{n:>6} {g.e:>7} {digest:>12} {gen_ms:>9.1f} {split_ms:>9.1f} {verify_ms:>9.1f} "
            f"{gen_ms + split_ms + verify_ms:>9.1f}  {d.trace} {format_rational(m)}"
        )
    return EXIT_YES


_BENCH_REPEATS = 3


def _timed(stage):
    """Run ``stage()`` _BENCH_REPEATS times: its last result, and the median
    of its CPU times (time.process_time) in ms, which a shared host's other
    load disturbs less than wall-clock time."""
    times = []
    for _ in range(_BENCH_REPEATS):
        t0 = time.process_time()
        out = stage()
        times.append((time.process_time() - t0) * 1e3)
    return out, sorted(times)[_BENCH_REPEATS // 2]


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sparsity-forge",
        description="Exact sparsity checks, matroid partitions, and forest decompositions",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide (a, b)-sparsity with a witness certificate")
    p.add_argument("--a", required=True, help='coefficient, e.g. "2" or "7/3"')
    p.add_argument("--b", required=True, help='offset, e.g. "-1"')
    _add_io_args(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose", help="split an (m, 0)-sparse graph into forest + rest")
    p.add_argument("--m", required=True, help='density bound, e.g. "5/2" (needs m > 1)')
    p.add_argument("--verify", action="store_true", help="re-check the output from scratch")
    p.add_argument("--trace", action="store_true", help="include stage timings")
    _add_io_args(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("partition", help="two-matroid sparse partition or deficiency")
    p.add_argument("--a1", type=int, required=True)
    p.add_argument("--b1", type=int, required=True)
    p.add_argument("--a2", type=int, required=True)
    p.add_argument("--b2", type=int, required=True)
    p.add_argument("--minimize", action="store_true", help="shrink deficiency certificates")
    _add_io_args(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("gen", help="generate the counterexample families (graph6 out)")
    gsub = p.add_subparsers(dest="family", required=True)
    gp = gsub.add_parser("disconnected", help="t disjoint 2(a1+a2)-regular circulants")
    gp.add_argument("--a1", type=int, required=True)
    gp.add_argument("--a2", type=int, required=True)
    gp.add_argument("--n", type=int, required=True)
    gp.add_argument("--t", type=int, required=True)
    gp = gsub.add_parser("glued-trees", help="two K_{4a} glued at a vertex")
    gp.add_argument("--a", type=int, required=True)
    gp = gsub.add_parser("ring", help="ring of t blocks K_{2a+2} minus an edge")
    gp.add_argument("--a", type=int, required=True)
    gp.add_argument("--t", type=int, required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser(
        "bench", help="seeded end-to-end table of per-stage CPU ms, median of 3 runs"
    )
    p.add_argument("suite", help="bench suite name (decompose)")
    p.add_argument("--sizes", default="100,200,500", help="comma-separated vertex counts")
    p.add_argument("--seed", type=int, default=20250801)
    p.add_argument("--m", default="5/2", help="comma-separated density bounds, e.g. 3/2,7")
    p.set_defaults(func=cmd_bench)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SparsityForgeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
