"""certify: valid inputs only, so every law check scans its whole index space.

Every expected verdict follows by theorem from how families.py builds the
inputs; the structural outputs (tables, groups, parsed texts) are compared
with the benchmark's own copies.
"""

import numpy as np

import families
import oracles
from common import Op, cli_line, expect, first_problem, run_cli
from families import CLI_ACTION, CLI_CHECK, CLI_LAWS, LAWS
from semiheap import actions, bundles, core, formats, functors, translations

FORMAT_MAX_N = 16
CLI_HEAPIFY = ("S3", "Z8", "Q8")
CLI_GROUPIFY = ("D4", "K4xZ3~")


def _verify(tr, c):
    table = c.pointed.table

    def run():
        with tr.span("core.verify", tuples=c.n ** 5):
            return core.verify_para_associative(table)
    return Op(f"verify/{c.name}", run, lambda w: expect(w is None, f"witness {w} on a heap"))


def _laws(tr, c):
    def run():
        with tr.span("core.laws"):
            return (core.is_heap(c.pointed.semiheap), core.is_abelian(c.pointed.semiheap),
                    translations.is_biunital(c.pointed))
    want = (True, c.abelian, True)
    return Op(f"heap-abelian-biunital/{c.name}", run,
              lambda out: expect(out == want, f"(heap, abelian, biunital) = {out}, want {want}"))


def _translation_law(tr, c, law):
    fn, s = LAWS[law][0], c.pointed.semiheap

    def run():
        with tr.span("translations.laws", quadruples=c.n ** 4):
            return fn(s)
    return Op(f"{law}-law/{c.name}", run, lambda w: expect(w is None, f"{law} law witness {w} on a heap"))


def _compat(tr, c):
    s = c.pointed.semiheap
    raw = s.table.entries

    def run():
        with tr.span("actions.compat"):
            return actions.action_compat_witness(raw, s)
    return Op(f"translation-action/{c.name}", run,
              lambda w: expect(w is None, f"compatibility witness {w} on a translation action"))


def _group_action(tr, c):
    def run():
        with tr.span("actions.compat"):
            return actions.action_from_group_action(c.group, actions.right_multiplication_action(c.group))
    return Op(f"group-action/{c.name}", run,
              lambda a: expect(a.table.tolist() == c.t, "induced action differs from p * g1^-1 * g2"))


def _hom(tr, c, label, mapping, target):
    arr = np.array(mapping)

    def run():
        with tr.span("core.hom"):
            return core.homomorphism_witness(arr, c.pointed.semiheap, target)
    return Op(f"hom-{label}/{c.name}", run, lambda w: expect(w is None, f"hom witness {w} on a homomorphism"))


def _round_trip(tr, c):
    def run():
        with tr.span("functors.heapify"):
            h = functors.heapify(c.group)
        with tr.span("functors.groupify"):
            return h, functors.groupify(h), functors.groupify(c.pointed)

    def check(out):
        h, g, g2 = out
        return first_problem(
            expect(h.table.entries.tolist() == c.t and h.basepoint == c.e, "heapify table differs"),
            *(expect(x.mul.tolist() == c.mul and x.e == c.e and x.inv.tolist() == c.inv,
                     "groupify does not give the group back") for x in (g, g2)))
    return Op(f"heapify-groupify/{c.name}", run, check)


def _formats(tr, c):
    def run():
        with tr.span("formats.write"):
            text = formats.write_shf1(c.pointed)
            gtext = formats.write_grp1(c.group)
        with tr.span("formats.parse", bytes=len(text) + len(gtext)):
            return text, formats.parse_shf1(text), gtext, formats.parse_grp1(gtext)

    def check(out):
        text, s, gtext, g = out
        return first_problem(
            expect(oracles.int_block(text) == (["semiheap", f"n={c.n}", f"pt={c.e}"], list(oracles.flat(c.t))),
                   "SHF1 text differs"),
            expect(s.table.entries.tolist() == c.t and s.basepoint == c.e, "SHF1 parse differs"),
            expect(oracles.int_block(gtext) == (["group", f"n={c.n}", f"e={c.e}"], sum(c.mul, [])),
                   "GRP1 text differs"),
            expect(g.mul.tolist() == c.mul and g.e == c.e, "GRP1 parse differs"))
    return Op(f"shf1-grp1/{c.name}", run, check)


def _bundle(tr, bc):
    def run():
        with tr.span("bundles.verify"):
            b = bundles.heapify_principal(bc.principal)
        with tr.span("bundles.verify"):
            return b, bundles.verify_bundle(b)

    def check(out):
        b, failure = out
        return first_problem(expect(failure is None, f"bundle failure {failure}"),
                             expect(b.action.table.tolist() == bc.act, "heapified action differs"))
    return Op(f"bundle/{bc.name}", run, check)


def _bundle_format(tr, bc):
    def run():
        with tr.span("formats.write"):
            text = formats.write_bnd1(bc.heapified)
        with tr.span("formats.parse", bytes=len(text)):
            return formats.parse_bnd1(text)

    def check(b):
        return expect(b.projection.tolist() == bc.proj and b.action.table.tolist() == bc.act
                      and b.structure.table.entries.tolist() == bc.t
                      and tuple(b.cover) == bc.cover and tuple(b.charts) == bc.charts,
                      "BND1 round trip differs")
    return Op(f"bnd1/{bc.name}", run, check)


def _cli(tr, name, argv, want_code, check_line):
    def check(result):
        line = cli_line(result, want_code)
        if line is None:
            return f"exit {result[0]}, stdout {result[1][:80]!r}, stderr {result[2][-200:]!r}"
        return check_line(line)
    return Op(f"cli-{name}", lambda: run_cli(tr, argv), check)


def _cli_table(tr, name, argv, header, values):
    def check(result):
        code, out, err = result
        return expect(code == 0 and oracles.int_block(out) == (header, values),
                      f"exit {code}, output differs ({err[-200:]!r})")
    return Op(f"cli-{name}", lambda: run_cli(tr, argv), check)


def _texts(ctx, c):
    """SHF1 and GRP1 files for the CLI, written at set-up by the program's writers."""
    with ctx.tracer.span("formats.write"):
        shf, grp = formats.write_shf1(c.pointed), formats.write_grp1(c.group)
    ctx.validate(oracles.int_block(shf)[1] == list(oracles.flat(c.t)), f"{c.name}: SHF1 text differs")
    return ctx.write(f"{c.name}.shf", shf), ctx.write(f"{c.name}.grp", grp)


def cli_ops(ctx, by, bcases):
    tr = ctx.tracer
    files = {name: _texts(ctx, by[name]) for name in
             set(CLI_CHECK + CLI_LAWS + CLI_ACTION + CLI_HEAPIFY + CLI_GROUPIFY)}
    ops = []
    for name in CLI_CHECK:
        c = by[name]
        want = {"verb": "pass", "para-associative": "true", "heap": "true",
                "abelian": str(c.abelian).lower(), "biunital": "true"}
        ops.append(_cli(tr, f"check/{name}", ["check", "--in", files[name][0]], 0,
                        lambda line, want=want: expect(oracles.records(line) == want, f"report {line!r}")))
    for name in CLI_LAWS:
        for law in LAWS:
            want = {"verb": "pass", "law": law, "quadruples": str(by[name].n ** 4)}
            ops.append(_cli(tr, f"translations-{law}/{name}",
                            ["translations", "--law", law, "--in", files[name][0]], 0,
                            lambda line, want=want: expect(oracles.records(line) == want, f"report {line!r}")))
    for name in CLI_ACTION:
        c = by[name]
        with tr.span("formats.write"):
            text = formats.write_act1(actions.translation_action(c.pointed.semiheap))
        act = ctx.write(f"{name}.act", text)
        ops.append(_cli(tr, f"action-check/{name}",
                        ["action-check", "--semiheap", files[name][0], "--in", act], 0,
                        lambda line: expect(line == "pass action-compatible=true", f"report {line!r}")))
    for bc in bcases[:2]:
        with tr.span("formats.write"):
            path = ctx.write(f"{bc.name}.bnd", formats.write_bnd1(bc.heapified))
        ops.append(_cli(tr, f"bundle-check/{bc.name}", ["bundle-check", "--in", path], 0,
                        lambda line: expect(line == "pass bundle=true", f"report {line!r}")))
    for name in CLI_HEAPIFY:
        c = by[name]
        ops.append(_cli_table(tr, f"heapify/{name}", ["heapify", "--in", files[name][1]],
                              ["semiheap", f"n={c.n}", f"pt={c.e}"], list(oracles.flat(c.t))))
    for name in CLI_GROUPIFY:
        c = by[name]
        ops.append(_cli_table(tr, f"groupify/{name}", ["groupify", "--in", files[name][0]],
                              ["group", f"n={c.n}", f"e={c.e}"], sum(c.mul, [])))
    return ops


def build(ctx):
    tr = ctx.tracer
    cases = families.heap_cases(ctx)
    by = {c.name: c for c in cases}
    bcases = families.bundle_cases(ctx, by)
    ops = []
    for c in cases:
        ops += [_verify(tr, c), _laws(tr, c), _compat(tr, c), _round_trip(tr, c)]
        if c.n <= families.SMALL:
            ops += [_translation_law(tr, c, law) for law in LAWS]
        if c.name in families.GROUPS:
            ops.append(_group_action(tr, c))
        if c.n <= FORMAT_MAX_N:
            ops.append(_formats(tr, c))
        ops += [_hom(tr, c, label, mapping, target) for label, mapping, target, _ in c.homs]
    for bc in bcases:
        ops += [_bundle(tr, bc), _bundle_format(tr, bc)]
    return ops + cli_ops(ctx, by, bcases)
