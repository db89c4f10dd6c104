"""refute: the certify families, each with one seeded corrupted cell.

A corruption (table, action table, chart or hom map) is kept only after
the benchmark exhibits a failing tuple for it by scalar lookups.  Every
reported witness must fail its law when evaluated the same way, and at
n <= families.SMALL it must be the first failing tuple of a loop scan.
Malformed texts must be rejected with exit 2 at the planted line and
column.  One operation, `orbit --point 9` on a 4-point action, fails on
today's code (see README.md).
"""

import re
from types import SimpleNamespace

import numpy as np

import families
import oracles
from common import Op, expect, first_problem, run_cli
from families import CLI_ACTION, CLI_CHECK, CLI_LAWS, LAWS
from semiheap import actions, bundles, core, formats
from semiheap.core import TernaryTable

# How the CLI reports a para-associativity failure met while reading a semiheap.
LAW_ERROR = re.compile(r"fail law witness=ParaAssocCounterexample\(quintuple=\(([\d, ]+)\), "
                       r"outer=(\d+), middle=(\d+), inner=(\d+)\)\n")


def _copy(t):
    return [[row[:] for row in plane] for plane in t]


def _corrupt(rng, t, fails_through):
    """t with one seeded cell changed, kept once a failing tuple through it is found."""
    n = len(t)
    while True:
        cell = tuple(int(v) for v in rng.integers(0, n, size=3))
        bad = _copy(t)
        i, j, k = cell
        bad[i][j][k] = (t[i][j][k] + int(rng.integers(1, n))) % n
        if fails_through(bad, cell) is not None:
            return bad


def _shf1_text(t):
    n = len(t)
    return "\n".join(oracles.render_rows(f"semiheap n={n}", oracles.flat(t), n * n)) + "\n"


def _act1_text(a, n):
    return "\n".join(oracles.render_rows(f"action m={len(a)} n={n}", oracles.flat(a), n * n)) + "\n"


def _para_witness_problem(bad, q, values, first):
    got = oracles.para_values(bad, q)
    return first_problem(
        expect(len(set(got)) > 1, f"quintuple {q} does not fail"),
        expect(values is None or tuple(values) == got, f"reported values {values}, lookups give {got}"),
        expect(first is None or q == first, f"witness {q}, first failing quintuple is {first}"))


def _verify(tr, c, bad, first):
    table = TernaryTable(np.array(bad))

    def run():
        with tr.span("core.verify", tuples=c.n ** 5):
            return core.verify_para_associative(table)

    def check(w):
        if w is None:
            return "no witness on a corrupted table"
        return _para_witness_problem(bad, w.quintuple, (w.outer, w.middle, w.inner), first)
    return Op(f"verify/{c.name}", run, check)


def _translation_law(tr, c, bad, law):
    fn, label = LAWS[law]
    raw = SimpleNamespace(n=c.n, table=TernaryTable(np.array(bad)))   # not a semiheap
    want = oracles.first_law_failure(bad, law)

    def run():
        with tr.span("translations.laws", quadruples=c.n ** 4):
            return fn(raw)

    def check(w):
        if want is None:
            return expect(w is None, f"witness {w} where the law holds")
        if w is None:
            return f"no witness, first failure is {want}"
        got = (tuple(w.params), w.point, w.lhs, w.rhs)
        return first_problem(
            expect(w.law == label, f"law {w.law!r}"),
            expect(oracles.law_values(bad, law, w.params, w.point) == (w.lhs, w.rhs)
                   and w.lhs != w.rhs, f"witness {got} does not fail"),
            expect(got == want, f"witness {got}, first failure is {want}"))
    return Op(f"{law}-law/{c.name}", run, check)


def _compat(tr, c, bad_action, first):
    s = c.pointed.semiheap
    raw = np.array(bad_action)

    def run():
        with tr.span("actions.compat"):
            return actions.action_compat_witness(raw, s)

    def check(w):
        if w is None:
            return "no witness on a corrupted action"
        got = oracles.action_values(bad_action, c.t, w.point, w.quadruple)
        return first_problem(
            expect(got == (w.lhs, w.rhs) and w.lhs != w.rhs, f"witness {w} does not fail"),
            expect(first is None or (w.point, tuple(w.quadruple)) == first,
                   f"witness {w}, first failure is {first}"))
    return Op(f"translation-action/{c.name}", run, check)


def _hom(tr, c, label, bad_map, target, want):
    arr = np.array(bad_map)

    def run():
        with tr.span("core.hom"):
            return core.homomorphism_witness(arr, c.pointed.semiheap, target)
    return Op(f"hom-{label}/{c.name}", run,
              lambda w: expect(w == want, f"witness {w}, first failure is {want}"))


def _bundle(tr, bc, bad, charts, want):
    def run():
        with tr.span("bundles.verify"):
            return bundles.verify_bundle(bad)

    def check(f):
        if f is None:
            return "no failure on a corrupted chart"
        i, p, x, y = f.witness[:4]
        got, need = oracles.chart_equivariance_values(bc.t, bc.act, charts, i, p, x, y)
        return first_problem(
            expect(got != need, f"witness {f.witness} does not fail"),
            expect((f.axiom, tuple(f.witness)) == want, f"failure {f}, first is {want}"))
    return Op(f"bundle/{bc.name}", run, check)


def _corrupt_chart(rng, bc):
    """Swap the labels of two points of one fiber in one seeded chart."""
    n = len(bc.t)
    while True:
        i = int(rng.integers(0, len(bc.charts)))
        m = int(rng.integers(0, len(set(bc.proj))))
        p1, p2 = (m * n + int(v) for v in rng.choice(n, size=2, replace=False))
        charts = [dict(ch) for ch in bc.charts]
        charts[i][p1], charts[i][p2] = charts[i][p2], charts[i][p1]
        want = oracles.first_chart_failure(bc.t, bc.proj, bc.act, bc.cover, charts)
        if want is not None:
            return tuple(charts), want


def _cli(tr, name, argv, check, known_fault=False):
    return Op(f"cli-{name}", lambda: run_cli(tr, argv), check, known_fault)


def _cli_check(tr, c, path, bad, first):
    def check(result):
        code, out, err = result
        rec = oracles.records(out.strip())
        if code != 1 or rec.get("verb") != "fail" or rec.get("law") != "para-associative":
            return f"exit {code}, stdout {out!r}, stderr {err[-200:]!r}"
        values = tuple(int(rec[k]) for k in ("outer", "middle", "inner"))
        return _para_witness_problem(bad, oracles.ints(rec["quintuple"]), values, first)
    return _cli(tr, f"check/{c.name}", ["check", "--in", path], check)


def _cli_law(tr, c, path, bad, law, first):
    """The corrupted table is no semiheap: the CLI must refuse it with a failing quintuple."""
    def check(result):
        code, out, err = result
        m = LAW_ERROR.fullmatch(err)
        if code != 1 or out or m is None:
            return f"exit {code}, stdout {out!r}, stderr {err[-200:]!r}"
        q = oracles.ints(m.group(1).replace(" ", ""))
        return _para_witness_problem(bad, q, tuple(int(v) for v in m.groups()[1:]), first)
    return _cli(tr, f"translations-{law}/{c.name}", ["translations", "--law", law, "--in", path], check)


def _cli_action(tr, c, shf, act, bad_action, first):
    def check(result):
        code, out, err = result
        rec = oracles.records(out.strip())
        if code != 1 or rec.get("verb") != "fail" or rec.get("law") != "action-compatibility":
            return f"exit {code}, stdout {out!r}, stderr {err[-200:]!r}"
        p, quad = int(rec["point"]), oracles.ints(rec["quadruple"])
        lhs, rhs = oracles.action_values(bad_action, c.t, p, quad)
        return first_problem(
            expect((lhs, rhs) == (int(rec["lhs"]), int(rec["rhs"])) and lhs != rhs,
                   f"witness {out.strip()!r} does not fail"),
            expect(first is None or (p, quad) == first, f"witness {(p, quad)}, first is {first}"))
    return _cli(tr, f"action-check/{c.name}", ["action-check", "--semiheap", shf, "--in", act], check)


def _cli_bundle(tr, bc, path, want):
    axiom, witness = want
    prefix = f"fail axiom={axiom} witness={','.join(str(v) for v in witness[:4])},"

    def check(result):
        code, out, err = result
        return expect(code == 1 and out.startswith(prefix), f"exit {code}, stdout {out!r}, want {prefix!r}")
    return _cli(tr, f"bundle-check/{bc.name}", ["bundle-check", "--in", path], check)


def _malformed_ops(ctx, name, text, where, parse, argv):
    """A direct parse and a CLI call on a text with one planted error at (line, column)."""
    tr = ctx.tracer
    line, col = where
    path = ctx.write(name, text)

    def run():
        with tr.span("formats.parse", bytes=len(text)):
            try:
                return parse(text)
            except formats.FormatError as exc:
                return exc

    def check(err):
        if not isinstance(err, formats.FormatError):
            return "malformed text accepted"
        return expect((err.line, err.col) == where, f"error at {(err.line, err.col)}, planted at {where}")

    def check_cli(result):
        code, out, err = result
        return expect(code == 2 and f"at line {line}, column {col}" in err,
                      f"exit {code}, stderr {err[-200:]!r}, planted at {where}")
    return [Op(f"parse-{name}", run, check),
            _cli(tr, f"{argv[0]}-{name}", argv + ["--in", path], check_cli)]


def malformed_ops(ctx, by, bcases):
    rng = ctx.rng("malformed")
    z4, z5 = by["Z4"], by["Z5"]
    n = z4.n
    shf = oracles.render_rows(f"semiheap n={n} pt={z4.e}", oracles.flat(z4.t), n * n)
    z4_path = ctx.write("z4.shf", "\n".join(shf) + "\n")
    ops = []

    def plant(lines, per_line, token):
        li, ti = 1 + int(rng.integers(0, len(lines) - 1)), int(rng.integers(0, per_line))
        return "\n".join(oracles.replace_token(lines, li, ti, token)) + "\n", oracles.token_position(lines, li, ti)

    text, where = plant(shf, n * n, str(n + int(rng.integers(0, 10))))
    ops += _malformed_ops(ctx, "range.shf", text, where, formats.parse_shf1, ["check"])
    text, where = plant(shf, n * n, f"x{int(rng.integers(0, 10))}")
    ops += _malformed_ops(ctx, "token.shf", text, where, formats.parse_shf1, ["check"])
    ops += _malformed_ops(ctx, "trailing.shf", "\n".join(shf + ["7"]) + "\n", (len(shf) + 1, 1),
                          formats.parse_shf1, ["check"])
    grp = oracles.render_rows(f"group n={z5.n} e={z5.e}", sum(z5.mul, []), z5.n)
    text, where = plant(grp, z5.n, str(z5.n + int(rng.integers(0, 10))))
    ops += _malformed_ops(ctx, "range.grp", text, where, formats.parse_grp1, ["heapify"])
    act = oracles.render_rows(f"action m={n} n={n}", oracles.flat(z4.t), n * n)
    text, where = plant(act, n * n, str(n + int(rng.integers(0, 10))))
    ops += _malformed_ops(ctx, "range.act", text, where,
                          lambda s: formats.parse_act1(s, z4.pointed.semiheap),
                          ["action-check", "--semiheap", z4_path])
    bc = bcases[0]
    with ctx.tracer.span("formats.write"):
        bnd = formats.write_bnd1(bc.heapified).rstrip("\n").split("\n")
    pairs, inside = [], False
    for i, line in enumerate(bnd):       # "<point> <label>" lines of every chart
        if line in ("pairs", "cover") or line.startswith("chart"):
            inside = line == "pairs"
        elif inside:
            pairs.append(i)
    li = pairs[int(rng.integers(0, len(pairs)))]
    bad_label = str(len(bc.t) + int(rng.integers(0, 10)))
    text = "\n".join(oracles.replace_token(bnd, li, 1, bad_label)) + "\n"
    ops += _malformed_ops(ctx, "label.bnd", text, oracles.token_position(bnd, li, 1),
                          formats.parse_bnd1, ["bundle-check"])
    return ops


def orbit_op(ctx, by):
    """`orbit --point 9` on the 4-point translation action of heap(Z4): exit 2 expected.

    The input does not depend on the seed.  Today actions.orbit raises
    IndexError, which the CLI does not catch, so this operation fails in
    every round.
    """
    z4 = by["Z4"]
    shf = ctx.write("orbit.shf", _shf1_text(z4.t))
    act = ctx.write("orbit.act", _act1_text(z4.t, z4.n))
    argv = ["orbit", "--semiheap", shf, "--point", "9", "--in", act]
    return _cli(ctx.tracer, "orbit-out-of-range/Z4", argv,
                lambda r: expect(r[0] == 2 and r[2].startswith("error input"),
                                 f"exit {r[0]}, stderr {r[2][-200:]!r}"),
                known_fault=True)


def build(ctx):
    tr = ctx.tracer
    cases = families.heap_cases(ctx)
    by = {c.name: c for c in cases}
    bcases = families.bundle_cases(ctx, by)
    rng = ctx.rng("corrupt")
    ops, cli_ops = [], []
    for c in cases:
        small = c.n <= families.SMALL
        bad = _corrupt(rng, c.t, oracles.para_failure_through)
        ops.append(_verify(tr, c, bad, oracles.first_para_failure(bad) if small else None))
        if small:
            ops += [_translation_law(tr, c, bad, law) for law in LAWS]
        bad_action = _corrupt(rng, c.t, lambda a, cell: oracles.action_failure_through(a, c.t, cell))
        first_action = oracles.first_action_failure(bad_action, c.t) if small else None
        ops.append(_compat(tr, c, bad_action, first_action))
        for label, mapping, target, target_t in c.homs:
            while True:
                bad_map = list(mapping)
                x = int(rng.integers(0, c.n))
                bad_map[x] = (bad_map[x] + int(rng.integers(1, target.n))) % target.n
                want = oracles.first_hom_failure(bad_map, c.t, target_t)
                if want is not None:
                    break
            ops.append(_hom(tr, c, label, bad_map, target, want))
        if c.name in CLI_CHECK:
            path = ctx.write(f"{c.name}.shf", _shf1_text(bad))
            first = oracles.first_para_failure(bad) if small else None
            cli_ops.append(_cli_check(tr, c, path, bad, first))
            if c.name in CLI_LAWS:
                cli_ops += [_cli_law(tr, c, path, bad, law, first) for law in LAWS]
        if c.name in CLI_ACTION:
            shf = ctx.write(f"{c.name}-valid.shf", _shf1_text(c.t))
            act = ctx.write(f"{c.name}.act", _act1_text(bad_action, c.n))
            cli_ops.append(_cli_action(tr, c, shf, act, bad_action, first_action))
    for k, bc in enumerate(bcases):
        charts, want = _corrupt_chart(rng, bc)
        b = bc.heapified
        bad = bundles.DiscreteSemiheapBundle(b.base_size, b.projection, b.structure, b.action,
                                             b.cover, charts)
        ops.append(_bundle(tr, bc, bad, charts, want))
        if k < 2:
            with tr.span("formats.write"):
                path = ctx.write(f"{bc.name}.bnd", formats.write_bnd1(bad))
            cli_ops.append(_cli_bundle(tr, bc, path, want))
    return ops + cli_ops + malformed_ops(ctx, by, bcases) + [orbit_op(ctx, by)]
