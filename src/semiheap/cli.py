"""Command-line entry point.

All subcommands write stdout (or --out); those that read input read stdin
(or --in).  Output is line-oriented key=value records; identical inputs and
seeds produce byte-identical reports.  Exit codes: 0 all checks pass,
1 a law or property fails (witness emitted), 2 input or usage errors.
"""

import argparse
import functools
import sys

import numpy as np

from .core import (
    FormatError,
    InvalidTable,
    LawError,
    PointedSemiheap,
    Unsupported,
    _unpointed,
    is_abelian,
    is_heap,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
CHARTS = ("r1", "r2", "r3", "rx", "so2", "so3", "ut2")     # sorted(charts.bundled_charts()), without loading charts


def _record(out, head=None, **fields):
    """One line: head, if any, then key=value in order; a bool reads true/false, a tuple or list joins by commas."""
    def text(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        return ",".join(map(str, v)) if isinstance(v, (tuple, list)) else str(v)
    out.write(" ".join(([head] if head else []) + [f"{k}={text(v)}" for k, v in fields.items()]) + "\n")


def _checked(kind, ok, what):
    """An argparse type: kind(text), rejected as not what unless ok(value), which nan fails as a comparison."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    parse.__name__ = kind.__name__    # argparse names the type in its messages
    return parse


@functools.cache
def build_parser():
    writes = argparse.ArgumentParser(add_help=False)
    writes.add_argument("--out", dest="outfile", help="write output to a file instead of stdout")
    reads = argparse.ArgumentParser(add_help=False, parents=[writes])
    reads.add_argument("--in", dest="infile", help="read input from a file instead of stdin")

    parser = argparse.ArgumentParser(prog="semiheap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("check", parents=[reads], help="verify semiheap laws on SHF1 input")

    sub.add_parser("heapify", parents=[reads], help="GRP1 in, pointed SHF1 out")

    p = sub.add_parser("groupify", parents=[reads], help="pointed SHF1 in, GRP1 out")
    p.add_argument("--pt", type=int, default=None, help="basepoint override")
    p.add_argument("--no-require-heap", action="store_true",
                   help="diagnostic mode: report the failing group axiom instead of requiring a heap")

    p = sub.add_parser("translations", parents=[reads], help="translation laws on SHF1 input")
    p.add_argument("--law", choices=["right", "left", "commute", "centric"], required=True)

    p = sub.add_parser("action-check", parents=[reads], help="verify ACT1 input against --semiheap")
    p.add_argument("--semiheap", required=True, help="SHF1 file with the structure semiheap")

    p = sub.add_parser("orbit", parents=[reads], help="reachable set of --point under an ACT1 action")
    p.add_argument("--semiheap", required=True)
    p.add_argument("--point", type=int, required=True)

    sub.add_parser("bundle-check", parents=[reads], help="verify BND1 input")

    p = sub.add_parser("enumerate", parents=[writes], help="enumerate semiheaps or heaps")
    p.add_argument("--budget", type=_checked(float, lambda v: v >= 0, "non-negative"), default=None,
                   help="wall-clock budget in seconds")
    p.add_argument("--n", type=_checked(int, lambda v: v >= 0, "non-negative"), required=True)
    p.add_argument("--heaps", action="store_true")
    p.add_argument("--up-to-iso", action="store_true")
    p.add_argument("--no-tables", action="store_true", help="summary line only")

    p = sub.add_parser("numeric", parents=[writes], help="numerical heap checks on matrix charts")
    p.add_argument("--seed", type=_checked(int, lambda v: v >= 0, "non-negative"), default=0,
                   help="seed of the sampled points")
    p.add_argument("subcheck", choices=["para-assoc", "pushforward", "left-invariant",
                                        "group-vs-heap", "bracket", "mult-function",
                                        "mult-field", "tangent", "coassoc", "euclidean",
                                        "exp-hom"])
    p.add_argument("--chart", default="so3", choices=CHARTS)
    p.add_argument("--samples", type=_checked(int, lambda v: v > 0, "positive"), default=100)
    p.add_argument("--h", type=_checked(float, lambda v: v > 0, "positive"), default=None)
    p.add_argument("--tol", type=_checked(float, lambda v: v > 0, "positive"), default=None)
    p.add_argument("--square", action="store_true",
                   help="mult-function: use the quadratic test function instead of a linear one")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        out = open(args.outfile, "w") if args.outfile else sys.stdout
        try:
            return _dispatch(args, out)
        finally:
            if args.outfile:
                out.close()
    except (FormatError, InvalidTable, OSError) as exc:
        print(f"error input {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LawError as exc:
        print(f"fail law witness={exc.witness}", file=sys.stderr)
        return EXIT_FAIL
    except Unsupported as exc:
        print(f"error unsupported {exc}", file=sys.stderr)
        return EXIT_USAGE


def _read_input(args):
    if args.infile:
        with open(args.infile) as fh:
            return fh.read()
    return sys.stdin.read()


def _load_semiheap(path):
    from . import formats
    with open(path) as fh:
        return _unpointed(formats.parse_shf1(fh.read()))


def _dispatch(args, out):
    cmd = args.command
    if cmd == "check":
        return _cmd_check(args, out)
    if cmd == "heapify":
        from . import formats, functors
        g = formats.parse_grp1(_read_input(args))
        out.write(formats.write_shf1(functors.heapify(g)))
        return EXIT_OK
    if cmd == "groupify":
        return _cmd_groupify(args, out)
    if cmd == "translations":
        return _cmd_translations(args, out)
    if cmd == "action-check":
        from . import formats
        s = _load_semiheap(args.semiheap)
        try:
            formats.parse_act1(_read_input(args), s)
        except LawError as exc:
            _record(out, "fail", law="action-compatibility", **vars(exc.witness))
            return EXIT_FAIL
        _record(out, "pass", **{"action-compatible": True})
        return EXIT_OK
    if cmd == "orbit":
        from . import actions, formats
        s = _load_semiheap(args.semiheap)
        action = formats.parse_act1(_read_input(args), s)
        members = sorted(actions.orbit(action, args.point))
        _record(out, "orbit", point=args.point, size=len(members), members=members,
                symmetric=actions.reachability_symmetric(action) is None)
        return EXIT_OK
    if cmd == "bundle-check":
        from . import bundles, formats
        b = formats.parse_bnd1(_read_input(args))
        failure = bundles.verify_bundle(b)
        if failure is not None:
            _record(out, "fail", **vars(failure))
            return EXIT_FAIL
        _record(out, "pass", bundle=True)
        return EXIT_OK
    if cmd == "enumerate":
        return _cmd_enumerate(args, out)
    if cmd == "numeric":
        return _cmd_numeric(args, out)
    raise AssertionError(f"unhandled command {cmd}")


def _cmd_check(args, out):
    from . import formats
    try:
        parsed = formats.parse_shf1(_read_input(args))
    except LawError as exc:
        _record(out, "fail", law="para-associative", **vars(exc.witness))
        return EXIT_FAIL
    s = _unpointed(parsed)
    fields = {"para-associative": True, "heap": is_heap(s), "abelian": is_abelian(s)}
    if parsed is not s:
        from . import translations
        fields["biunital"] = translations.is_biunital(parsed)
    _record(out, "pass", **fields)
    return EXIT_OK


def _cmd_groupify(args, out):
    from . import formats, functors
    parsed = formats.parse_shf1(_read_input(args))
    pt = parsed.basepoint if args.pt is None and isinstance(parsed, PointedSemiheap) else args.pt
    if pt is None:
        print("error input groupify needs pt= in the header or --pt", file=sys.stderr)
        return EXIT_USAGE
    ps = PointedSemiheap(_unpointed(parsed), pt)
    if args.no_require_heap:
        result = functors.groupify_diagnose(ps)
        if isinstance(result, functors.GroupAxiomWitness):
            _record(out, "fail", **vars(result))
            return EXIT_FAIL
        out.write(formats.write_grp1(result))
        return EXIT_OK
    out.write(formats.write_grp1(functors.groupify(ps)))
    return EXIT_OK


def _cmd_translations(args, out):
    from . import formats, translations
    s = _unpointed(formats.parse_shf1(_read_input(args)))
    if args.law == "centric":
        found = translations.centric_nonclosure_witness([s])
        if found:
            _, inner, outer = found[0]
            _record(out, "witness", law="centric-nonclosure", inner=inner, outer=outer)
        else:
            _record(out, "pass", **{"centric-closed": True})
        return EXIT_OK
    checker = {"right": translations.right_compose_law,
               "left": translations.left_compose_law,
               "commute": translations.lr_commute}[args.law]
    bad = checker(s)
    if bad is not None:
        _record(out, "fail", **vars(bad))
        return EXIT_FAIL
    _record(out, "pass", law=args.law, quadruples=s.n ** 4)
    return EXIT_OK


def _cmd_enumerate(args, out):
    from . import enumeration, formats
    if args.heaps:
        found, kind = enumeration.enumerate_heaps(args.n, args.up_to_iso, args.budget), "heap"
    else:
        found, kind = enumeration.enumerate_semiheaps(args.n, args.up_to_iso, budget=args.budget), "semiheap"
    if not args.no_tables:
        for s in found:
            out.write(formats.write_shf1(s))
    _record(out, n=args.n, kind=kind, count=len(found), iso_count=len(found.classes), complete=found.complete)
    return EXIT_OK


def _cmd_numeric(args, out):
    from . import charts, numeric
    chart, samples, seed = charts.bundled_charts()[args.chart], args.samples, args.seed
    step = {} if args.h is None else {"h": args.h}      # each check's own default step unless --h is given
    if args.subcheck == "pushforward":
        res_h, res_half, ratio = numeric.pushforward_convergence(chart, samples, seed, **step)
        ok = 3.5 <= ratio <= 4.5
        _record(out, check="pushforward", res_h=f"{res_h:.3e}", res_half=f"{res_half:.3e}", ratio=f"{ratio:.3f}",
                seed=seed, **{"pass": ok})
        return EXIT_OK if ok else EXIT_FAIL
    kw = {} if args.tol is None else {"tol": args.tol}
    u, v = chart.basis[0], chart.basis[min(1, chart.dim - 1)]     # u = v on a one-dimensional chart
    checks = {
        "para-assoc": lambda: numeric.check_para_associative_numeric(chart, samples, seed, **kw),
        "left-invariant": lambda: numeric.left_invariant_field_check(chart, u, samples, seed, **step, **kw),
        "group-vs-heap": lambda: numeric.compare_group_vs_heap_invariance(chart, u, samples, seed, **kw),
        "bracket": lambda: numeric.bracket_closure(chart, u, v, samples, seed, **kw),
        "mult-function": lambda: numeric.multiplicative_function_check(
            chart, _coordinate_function(chart, args.square), numeric._triples(chart, samples, seed),
            seed=seed, **kw),
        "mult-field": lambda: numeric.multiplicative_vector_field_check(
            lambda y: y, _line_triples(samples, seed), seed=seed, **kw),
        "tangent": lambda: numeric.tangent_semiheap_check(chart, samples, seed, **step, **kw),
        "coassoc": lambda: numeric.coassociativity_check(chart, samples, seed, **kw),
        "euclidean": lambda: numeric.euclidean_semiheap_check(3, samples, seed, **kw),
        "exp-hom": lambda: numeric.exp_hom_check(samples, seed, **kw),
    }
    report = checks[args.subcheck]()
    _record(out, check=report.check, max_residual=f"{report.max_residual:.3e}", seed=seed, **{"pass": report.passed})
    return EXIT_OK if report.passed else EXIT_FAIL


def _coordinate_function(chart, square):
    """The mult-function test function: coordinate 0 squared, or the sum of all coordinates."""
    from .charts import PolynomialField
    if square:
        return PolynomialField((((0, 0), 1.0),))
    return PolynomialField.linear([1.0] * chart.coords(chart.basepoint).shape[0])


def _line_triples(samples, seed):
    """Seeded triples of points of the real line for the mult-field check, drawn as they are read."""
    rng = np.random.default_rng(seed)
    return (tuple(rng.uniform(-0.8, 0.8, size=1) for _ in range(3)) for _ in range(samples))


if __name__ == "__main__":
    sys.exit(main())
