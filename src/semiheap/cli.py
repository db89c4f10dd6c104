"""Command-line entry point.

All subcommands write stdout (or --out); those that read input read stdin
(or --in).  Output is line-oriented key=value records; identical inputs and
seeds produce byte-identical reports.  Exit codes: 0 all checks pass,
1 a law or property fails (witness emitted), 2 input or usage errors.
"""

import argparse
import sys

import numpy as np

from . import actions, bundles, enumeration, formats, functors, numeric, translations
from .charts import bundled_charts
from .core import (
    FiniteSemiheap,
    InvalidTable,
    LawError,
    PointedSemiheap,
    is_abelian,
    is_heap,
    verify_para_associative,
)
from .numeric import PolynomialField

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _greater_than(kind, low, what="positive"):
    """An argparse type: kind(text), rejected as not what unless it is greater than low."""
    def parse(text):
        value = kind(text)
        if not value > low:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    parse.__name__ = kind.__name__    # argparse names the type in its messages
    return parse


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
    p.add_argument("--budget", type=float, default=None, help="wall-clock budget in seconds")
    p.add_argument("--n", type=_greater_than(int, -1, "non-negative"), required=True)
    p.add_argument("--heaps", action="store_true")
    p.add_argument("--up-to-iso", action="store_true")
    p.add_argument("--no-tables", action="store_true", help="summary line only")

    p = sub.add_parser("numeric", parents=[writes], help="numerical heap checks on matrix charts")
    p.add_argument("--seed", type=int, default=0, help="seed of the sampled points")
    p.add_argument("subcheck", choices=["para-assoc", "pushforward", "left-invariant",
                                        "group-vs-heap", "bracket", "mult-function",
                                        "mult-field", "tangent", "coassoc", "euclidean",
                                        "exp-hom"])
    p.add_argument("--chart", default="so3", choices=sorted(bundled_charts()))
    p.add_argument("--samples", type=_greater_than(int, 0), default=100)
    p.add_argument("--h", type=_greater_than(float, 0), default=None)
    p.add_argument("--tol", type=float, default=None)
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
    except (formats.FormatError, InvalidTable, OSError) as exc:
        print(f"error input {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LawError as exc:
        print(f"fail law witness={exc.witness}", file=sys.stderr)
        return EXIT_FAIL
    except enumeration.Unsupported as exc:
        print(f"error unsupported {exc}", file=sys.stderr)
        return EXIT_USAGE


def _read_input(args):
    if args.infile:
        with open(args.infile) as fh:
            return fh.read()
    return sys.stdin.read()


def _load_semiheap(path):
    with open(path) as fh:
        s = formats.parse_shf1(fh.read())
    return s.semiheap if isinstance(s, PointedSemiheap) else s


def _dispatch(args, out):
    cmd = args.command
    if cmd == "check":
        return _cmd_check(args, out)
    if cmd == "heapify":
        g = formats.parse_grp1(_read_input(args))
        out.write(formats.write_shf1(functors.heapify(g)))
        return EXIT_OK
    if cmd == "groupify":
        return _cmd_groupify(args, out)
    if cmd == "translations":
        return _cmd_translations(args, out)
    if cmd == "action-check":
        s = _load_semiheap(args.semiheap)
        try:
            formats.parse_act1(_read_input(args), s)
        except LawError as exc:
            w = exc.witness
            out.write(f"fail law=action-compatibility point={w.point} "
                      f"quadruple={','.join(str(v) for v in w.quadruple)} lhs={w.lhs} rhs={w.rhs}\n")
            return EXIT_FAIL
        out.write("pass action-compatible=true\n")
        return EXIT_OK
    if cmd == "orbit":
        s = _load_semiheap(args.semiheap)
        action = formats.parse_act1(_read_input(args), s)
        members = sorted(actions.orbit(action, args.point))
        sym = actions.reachability_symmetric(action)
        out.write(f"orbit point={args.point} size={len(members)} "
                  f"members={','.join(str(m) for m in members)} "
                  f"symmetric={str(sym is None).lower()}\n")
        return EXIT_OK
    if cmd == "bundle-check":
        b = formats.parse_bnd1(_read_input(args))
        failure = bundles.verify_bundle(b)
        if failure is not None:
            out.write(f"fail axiom={failure.axiom} witness={','.join(str(v) for v in failure.witness)}\n")
            return EXIT_FAIL
        out.write("pass bundle=true\n")
        return EXIT_OK
    if cmd == "enumerate":
        return _cmd_enumerate(args, out)
    if cmd == "numeric":
        return _cmd_numeric(args, out)
    raise AssertionError(f"unhandled command {cmd}")


def _cmd_check(args, out):
    table, pt = formats.parse_shf1_raw(_read_input(args))
    witness = verify_para_associative(table)
    if witness is not None:
        q = ",".join(str(v) for v in witness.quintuple)
        out.write(f"fail law=para-associative quintuple={q} "
                  f"outer={witness.outer} middle={witness.middle} inner={witness.inner}\n")
        return EXIT_FAIL
    s = FiniteSemiheap(table, _certified=True)
    line = f"pass para-associative=true heap={str(is_heap(s)).lower()} abelian={str(is_abelian(s)).lower()}"
    if pt is not None:
        line += f" biunital={str(translations.is_biunital(PointedSemiheap(s, pt))).lower()}"
    out.write(line + "\n")
    return EXIT_OK


def _cmd_groupify(args, out):
    parsed = formats.parse_shf1(_read_input(args))
    if isinstance(parsed, PointedSemiheap):
        ps = parsed if args.pt is None else PointedSemiheap(parsed.semiheap, args.pt)
    else:
        if args.pt is None:
            print("error input groupify needs pt= in the header or --pt", file=sys.stderr)
            return EXIT_USAGE
        ps = PointedSemiheap(parsed, args.pt)
    if args.no_require_heap:
        result = functors.groupify_diagnose(ps)
        if isinstance(result, functors.GroupAxiomWitness):
            out.write(f"fail axiom={result.axiom} witness={','.join(str(v) for v in result.witness)}\n")
            return EXIT_FAIL
        out.write(formats.write_grp1(result))
        return EXIT_OK
    out.write(formats.write_grp1(functors.groupify(ps)))
    return EXIT_OK


def _cmd_translations(args, out):
    parsed = formats.parse_shf1(_read_input(args))
    s = parsed.semiheap if isinstance(parsed, PointedSemiheap) else parsed
    if args.law == "centric":
        found = translations.centric_nonclosure_witness([s])
        if found:
            _, (a, b), (c, d) = found[0]
            out.write(f"witness law=centric-nonclosure inner={a},{b} outer={c},{d}\n")
        else:
            out.write("pass centric-closed=true\n")
        return EXIT_OK
    checker = {"right": translations.right_compose_law,
               "left": translations.left_compose_law,
               "commute": translations.lr_commute}[args.law]
    bad = checker(s)
    if bad is not None:
        out.write(f"fail law={bad.law} params={','.join(str(v) for v in bad.params)} "
                  f"point={bad.point} lhs={bad.lhs} rhs={bad.rhs}\n")
        return EXIT_FAIL
    out.write(f"pass law={args.law} quadruples={s.n ** 4}\n")
    return EXIT_OK


def _cmd_enumerate(args, out):
    if args.heaps:
        found, kind = enumeration.enumerate_heaps(args.n, args.up_to_iso, args.budget), "heap"
    else:
        found, kind = enumeration.enumerate_semiheaps(args.n, args.up_to_iso, budget=args.budget), "semiheap"
    if not args.no_tables:
        for s in found:
            out.write(formats.write_shf1(s))
    out.write(f"n={args.n} kind={kind} count={len(found)} iso_count={len(found.classes)} "
              f"complete={str(found.complete).lower()}\n")
    return EXIT_OK


def _cmd_numeric(args, out):
    chart, samples, seed = bundled_charts()[args.chart], args.samples, args.seed
    if args.subcheck == "pushforward":
        h = args.h if args.h is not None else 1e-3
        res_h, res_half, ratio = numeric.pushforward_convergence(chart, samples, seed, h=h)
        ok = 3.5 <= ratio <= 4.5
        out.write(f"check=pushforward res_h={res_h:.3e} res_half={res_half:.3e} "
                  f"ratio={ratio:.3f} seed={seed} pass={str(ok).lower()}\n")
        return EXIT_OK if ok else EXIT_FAIL
    kw = {} if args.tol is None else {"tol": args.tol}
    u, v = chart.basis[0], chart.basis[min(1, chart.dim - 1)]     # u = v on a one-dimensional chart
    checks = {
        "para-assoc": lambda: numeric.check_para_associative_numeric(chart, samples, seed, **kw),
        "left-invariant": lambda: numeric.left_invariant_field_check(chart, u, samples, seed, h=args.h, **kw),
        "group-vs-heap": lambda: numeric.compare_group_vs_heap_invariance(chart, u, samples, seed, **kw),
        "bracket": lambda: numeric.bracket_closure(chart, u, v, samples, seed, **kw),
        "mult-function": lambda: numeric.multiplicative_function_check(
            chart, _coordinate_function(chart, args.square), numeric.sample_triples(chart, samples, seed),
            seed=seed, **kw),
        "mult-field": lambda: numeric.multiplicative_vector_field_check(
            lambda y: y, _line_triples(samples, seed), seed=seed, **kw),
        "tangent": lambda: numeric.tangent_semiheap_check(chart, samples, seed, h=args.h, **kw),
        "coassoc": lambda: numeric.coassociativity_check(chart, samples, seed, **kw),
        "euclidean": lambda: numeric.euclidean_semiheap_check(3, samples, seed, **kw),
        "exp-hom": lambda: numeric.exp_hom_check(samples, seed, **kw),
    }
    report = checks[args.subcheck]()
    out.write(report.line() + "\n")
    return EXIT_OK if report.passed else EXIT_FAIL


def _coordinate_function(chart, square):
    """The mult-function test function: coordinate 0 squared, or the sum of all coordinates."""
    if square:
        return PolynomialField((((0, 0), 1.0),))
    return PolynomialField.linear([1.0] * chart.coords(chart.basepoint).shape[0])


def _line_triples(samples, seed):
    """Seeded triples of points of the real line for the mult-field check."""
    rng = np.random.default_rng(seed)
    return [tuple(rng.uniform(-0.8, 0.8, size=1) for _ in range(3)) for _ in range(samples)]


if __name__ == "__main__":
    sys.exit(main())
