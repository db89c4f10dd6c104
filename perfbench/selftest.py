"""Feed every kind of output check a deliberately wrong answer; each must reject it.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Each operation of the light
part of every workload runs once; its real output must pass its check,
and wrong variants of that output must not.  The heavy census
operations are fed hand-made wrong answers without being run.  Exits 0
when every wrong answer was rejected.
"""

import dataclasses
import os
import shutil
import sys
from itertools import islice, product
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import common  # noqa: E402
import oracles  # noqa: E402
import wl_census  # noqa: E402
import wl_certify  # noqa: E402
import wl_numeric  # noqa: E402
import wl_refute  # noqa: E402
from semiheap.core import FiniteSemiheap, TernaryTable  # noqa: E402
from semiheap.enumeration import EnumerationResult  # noqa: E402
from spans import NullTracer  # noqa: E402

HEAVY = ("semiheaps-n3-", "fully-faithful/Z7", "fully-faithful/Z6")
tally = {"rejected": 0, "missed": []}


def rejects(op, wrong, what):
    if op.check(wrong) is None:
        tally["missed"].append(f"{op.name}: accepted {what}")
    else:
        tally["rejected"] += 1


def bump(text, last=True):
    """text with its first or last digit changed."""
    idx = [i for i, ch in enumerate(text) if ch.isdigit()]
    if not idx:
        return None
    i = idx[-1] if last else idx[0]
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def wrong_cli(op, result):
    code, out, err = result
    rejects(op, (code + 1, out, err), "another exit code")
    if code == 2:
        rejects(op, (code, out, bump(err)), "another error position")
    elif bump(out) is not None:
        rejects(op, (code, bump(out, last=not op.name.startswith("cli-bundle")), err), "a changed report")


def para_error(q, t):
    """stderr of the CLI refusing table t at quintuple q."""
    outer, middle, inner = oracles.para_values(t, q)
    return (f"fail law witness=ParaAssocCounterexample(quintuple={q}, "
            f"outer={outer}, middle={middle}, inner={inner})\n")


def wrong_law_error(op, result, workdir):
    """A refused corrupted table: the second failing quintuple, changed values, no witness."""
    code, out, err = result
    _, flat = oracles.int_block((workdir / f"{op.name.split('/')[1]}.shf").read_text())
    n = round(len(flat) ** (1 / 3))
    t = [[flat[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)] for i in range(n)]
    first, second = islice((q for q in product(range(n), repeat=5) if oracles.para_fails(t, q)), 2)
    assert op.check((code, out, para_error(first, t))) is None, f"{op.name}: rejects the first witness"
    rejects(op, (code, out, para_error(second, t)), "the second failing quintuple")
    rejects(op, (code, out, bump(err)), "a changed inner value")
    rejects(op, (code, out, "fail law witness=None\n"), "a failure without a witness")


def wrong_witness(op, w):
    """A later failing tuple where the first is required, or shifted values."""
    if isinstance(w, tuple):
        rejects(op, w[:-1] + (w[-1] + 1,), "a shifted hom witness")
        return
    if hasattr(w, "axiom"):
        rejects(op, dataclasses.replace(w, witness=(w.witness[0], w.witness[1] + 1) + w.witness[2:]),
                "a shifted bundle witness")
        return
    for name in ("outer", "lhs"):
        if hasattr(w, name):
            rejects(op, dataclasses.replace(w, **{name: getattr(w, name) + 1}), f"{name} + 1")


def check_light(ops, workdir):
    for op in ops:
        if op.name.startswith(HEAVY):
            continue
        try:
            out = op.run()
        except Exception as exc:        # the recorded fault
            assert op.known_fault, f"{op.name} raised {exc!r}"
            rejects(op, (1, "", "Traceback"), "a traceback")
            assert op.check((2, "", "error input point 9 outside the space")) is None, \
                f"{op.name}: rejects the right answer"
            continue
        why = op.check(out)
        assert why is None, f"{op.name}: right output rejected: {why}"
        name = op.name
        if isinstance(out, tuple) and len(out) == 3 and isinstance(out[0], int) and isinstance(out[1], str):
            wrong_cli(op, out)
            if out[2].startswith("fail law"):
                wrong_law_error(op, out, workdir)
        elif out is None:
            rejects(op, "a witness", "a witness on a valid input")
        elif name.startswith("bundle/") and isinstance(out, tuple):     # certify: (bundle, failure)
            rejects(op, (out[0], "failure"), "a failure on a valid bundle")
        elif name.startswith(("verify/", "right-law/", "left-law/", "commute-law/",
                              "translation-action/", "hom-", "bundle/")):
            wrong_witness(op, out)
        elif name.startswith("heap-abelian-biunital/"):
            rejects(op, (out[0], not out[1], out[2]), "the wrong abelian flag")
        elif name.startswith("group-action/"):
            rejects(op, SimpleNamespace(table=out.table[::-1]), "a permuted action table")
        elif name.startswith("heapify-groupify/"):
            h, g, g2 = out
            rejects(op, (h, g, SimpleNamespace(mul=g2.mul, e=g2.e, inv=g2.inv[::-1])), "a wrong inverse table")
        elif name.startswith("shf1-grp1/"):
            rejects(op, (bump(out[0]),) + out[1:], "a changed SHF1 text")
        elif name.startswith("bnd1/"):
            rejects(op, SimpleNamespace(projection=out.projection[::-1], action=out.action,
                                        structure=out.structure, cover=out.cover, charts=out.charts),
                    "a permuted projection")
        elif name.startswith("parse-"):
            rejects(op, SimpleNamespace(), "an accepted malformed text")
            rejects(op, type(out)("moved", out.line, (out.col or 0) + 1), "another column")
        elif name.startswith("pushforward/"):
            rejects(op, out[:2] + (5.0,), "ratio 5")
        elif hasattr(out, "max_residual"):
            if out.passed:
                rejects(op, dataclasses.replace(out, max_residual=out.tol * 2, passed=False), "a residual over tol")
                rejects(op, dataclasses.replace(out, max_residual=np.nextafter(out.max_residual, 1.0)),
                        "a residual that does not repeat")
            else:
                rejects(op, dataclasses.replace(out, passed=True, witness=None), "a passing negative control")
                x, y, z, lhs, rhs = out.witness
                rejects(op, dataclasses.replace(out, witness=(x, y, z, lhs + 1.0, rhs)), "a wrong witness value")
            if "commutator" in out.extra:
                extra = dict(out.extra, commutator=out.extra["commutator"] + 1.0)
                rejects(op, dataclasses.replace(out, extra=extra), "a wrong commutator")
        elif name.startswith(("semiheaps-n2", "heaps-n")):
            rejects(op, EnumerationResult(list(out)[:-1], True), "a table short")
            rejects(op, EnumerationResult(list(out), False), "an incomplete result")
        elif name.startswith("fully-faithful/"):
            rejects(op, dataclasses.replace(out, group_homs=out.group_homs[:-1]), "a group hom short")
            rejects(op, dataclasses.replace(out, unpointed_heap_homs=out.unpointed_heap_homs[:-1]),
                    "an unpointed hom short")
        elif name.startswith("canonical/"):
            rejects(op, TernaryTable((out.entries + 1) % out.n), "another table")
        elif name.startswith("isomorphic/"):
            rejects(op, not out, "the opposite verdict")
        else:
            raise AssertionError(f"no wrong answer for {name}")


def check_census_heavy(ops):
    """The n=3 checks, fed small hand-made results instead of running the search."""
    by = {op.name: op for op in ops}
    iso, labeled = by["semiheaps-n3-up-to-iso"], by["semiheaps-n3-labeled"]

    def result(*rules):
        return EnumerationResult([FiniteSemiheap.from_rule(3, rule) for rule in rules], True)
    left, right = (lambda x, y, z: x), (lambda x, y, z: z)
    assert iso.check(result(left, right)) is None, "two fixed representatives rejected"
    assert labeled.check(result(left, right)) is None, "their orbits rejected"
    rejects(labeled, result(left), "a labeled set short of the orbits")
    rejects(iso, result(left, left), "a repeated representative")
    table = np.zeros((3, 3, 3), dtype=np.int64)
    table[0, 0, 0], table[0, 0, 1] = 1, 2
    assert oracles.first_para_failure(table.tolist()) is not None
    bad = EnumerationResult([FiniteSemiheap(TernaryTable(table), _certified=True)], True)
    rejects(iso, bad, "a table that fails the law")
    for name in ("fully-faithful/Z7->Z4", "fully-faithful/Z6->S3"):
        rejects(by[name], SimpleNamespace(maps_checked=0, group_homs=(), pointed_heap_homs=(),
                                          unpointed_heap_homs=()), "an empty report")


def check_oracles():
    z4 = oracles.heap_of_group([[(a + b) % 4 for b in range(4)] for a in range(4)], [0, 3, 2, 1])
    assert oracles.first_para_failure(z4) is None and oracles.is_heap(z4)
    bad = wl_refute._copy(z4)
    bad[1][2][3] = 0
    q = oracles.first_para_failure(bad)
    assert q is not None and oracles.para_fails(bad, q) and not oracles.para_fails(z4, q)
    z6 = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    z4m = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    assert oracles.count_group_homs(z6, 0, z4m, 0) == 2          # gcd(6, 4)
    assert oracles.group_aut_count([[(a + b) % 5 for b in range(5)] for a in range(5)]) == 4   # phi(5)
    assert oracles.aut_count([[[x] * 3 for _ in range(3)] for x in range(3)]) == 6   # [x,y,z] = x
    assert len(oracles.semiheaps_brute(1)) == 1


def main():
    workdir = HERE / "out" / f"selftest-{os.getpid()}"
    try:
        check_oracles()
        for module in (wl_certify, wl_refute, wl_census, wl_numeric):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            ctx = common.Context(7, NullTracer(), workdir)
            ops = module.build(ctx)
            assert not ctx.problems, ctx.problems
            check_light(ops, workdir)
            if module is wl_census:
                check_census_heavy(ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in tally["missed"]:
        print("MISSED", line)
    print(f"selftest: {tally['rejected']} wrong answers rejected, {len(tally['missed'])} accepted")
    return 1 if tally["missed"] else 0


if __name__ == "__main__":
    sys.exit(main())
