import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import semiheap
from semiheap import formats, functors, groups
from semiheap.actions import translation_action
from semiheap.bundles import trivial_bundle
from semiheap.charts import bundled_charts
from semiheap.cli import CHARTS, build_parser, main

# The CLI subprocess imports the same semiheap as this test run, installed or not.
SRC = str(Path(semiheap.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(args, stdin=""):
    proc = subprocess.run([sys.executable, "-m", "semiheap.cli", *args],
                          input=stdin, capture_output=True, text=True, env=ENV)
    return proc.returncode, proc.stdout, proc.stderr


XOR_HEAP = "semiheap n=2 pt=0\n0 1 1 0\n1 0 0 1\n"
Y_TABLE = "semiheap n=2\n0 0 1 1 0 0 1 1\n"


def test_check_pass():
    code, out, _ = run_cli(["check"], XOR_HEAP)
    assert code == 0
    assert out.strip() == "pass para-associative=true heap=true abelian=true biunital=true"


def test_check_failure_witness():
    code, out, _ = run_cli(["check"], Y_TABLE)
    assert code == 1
    assert out == "fail law=para-associative quintuple=0,0,0,1,0 outer=1 middle=0 inner=0\n"


def test_check_format_error_exit_2():
    code, _, err = run_cli(["check"], "semiheap n=2\n0 1\n")
    assert code == 2
    assert "error input" in err


def test_unknown_flag_exit_2():
    code, _, _ = run_cli(["check", "--bogus"], XOR_HEAP)
    assert code == 2


def test_jobs_option_is_gone(capsys):
    # Enumeration runs in one process; --jobs is an unknown option on every verb.
    assert main(["enumerate", "--n", "2", "--jobs", "2"]) == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_heapify_rejects_a_nonassociative_loop():
    loop = "group n=5 e=0\n0 1 2 3 4\n1 0 3 4 2\n2 4 0 1 3\n3 2 4 0 1\n4 3 1 2 0\n"
    code, out, err = run_cli(["heapify"], loop)
    assert (code, out, err) == (1, "", "fail law witness=(1, 1, 2)\n")


def test_heapify_names_the_first_failing_group_axiom(tmp_path, capsys):
    # Inverses are the first y with xy = e: the first table breaks
    # associativity with them, and in the second 1 has no inverse at all.
    path = tmp_path / "g.grp"
    for text, witness in (("group n=3 e=0\n0 1 2\n1 0 0\n2 0 0\n", "(1, 1, 2)"),
                          ("group n=2 e=0\n0 1\n1 1\n", "(1, 0)")):
        path.write_text(text)
        assert main(["heapify", "--in", str(path)]) == 1
        assert capsys.readouterr() == ("", f"fail law witness={witness}\n")


def test_options_belong_to_the_verbs_that_read_them(capsys):
    # --in only where a verb reads input, --seed only on numeric, --budget only on enumerate.
    for argv in (["check", "--seed", "1"], ["numeric", "para-assoc", "--budget", "1"],
                 ["enumerate", "--n", "2", "--in", "x"]):
        assert main(argv) == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_heapify_groupify_pipe_round_trip(tmp_path):
    grp = formats.write_grp1(groups.cyclic(4))
    code, shf, _ = run_cli(["heapify"], grp)
    assert code == 0
    code, back, _ = run_cli(["groupify"], shf)
    assert code == 0
    assert back == grp


def test_groupify_diagnostic_mode():
    const = "semiheap n=2 pt=0\n0 0 0 0 0 0 0 0\n"
    code, out, _ = run_cli(["groupify", "--no-require-heap"], const)
    assert code == 1
    assert out == "fail axiom=identity witness=0,1,0,0\n"


def test_groupify_pt_override():
    shf = formats.write_shf1(functors.heapify(groups.cyclic(3)).semiheap)
    code, out, _ = run_cli(["groupify", "--pt", "1"], shf)
    assert code == 0
    assert out.splitlines()[0] == "group n=3 e=1"


def test_translations_verbs(tmp_path):
    shf = tmp_path / "z3.shf"
    shf.write_text(formats.write_shf1(functors.heapify(groups.cyclic(3)).semiheap))
    for law in ("right", "left", "commute"):
        code, out, _ = run_cli(["translations", "--law", law, "--in", str(shf)])
        assert code == 0 and out.startswith(f"pass law={law}")
    code, out, _ = run_cli(["translations", "--law", "centric", "--in", str(shf)])
    assert code == 0 and out == "witness law=centric-nonclosure inner=0,0 outer=0,0\n"


def test_translations_centric_witness_names_both_pairs(tmp_path, capsys):
    # C_{11} . C_{11} is no centric translation of this 3-point semiheap, first met at C_{22}.
    shf = tmp_path / "c.shf"
    shf.write_text("semiheap n=3\n0 0 0 0 0 0 0 0 0\n0 0 0 0 0 0 0 1 0\n0 0 0 0 0 2 0 0 0\n")
    assert main(["translations", "--law", "centric", "--in", str(shf)]) == 0
    assert capsys.readouterr() == ("witness law=centric-nonclosure inner=1,1 outer=2,2\n", "")
    shf.write_text("semiheap n=2\n0 0 0 0 1 1 1 1\n")
    assert main(["translations", "--law", "centric", "--in", str(shf)]) == 0
    assert capsys.readouterr() == ("pass centric-closed=true\n", "")


def test_translations_report_a_law_failure_as_a_record(tmp_path, capsys, monkeypatch):
    # The three composition laws are theorems on every semiheap the CLI accepts, so the
    # failure line is reached here by a checker that reports a counterexample.
    from semiheap import translations
    shf = tmp_path / "xor.shf"
    shf.write_text(XOR_HEAP)
    for law, name in (("right", "right_compose_law"), ("left", "left_compose_law"), ("commute", "lr_commute")):
        bad = translations.LawCounterexample(f"{law}-law", (0, 1, 1, 0), 1, 0, 1)
        monkeypatch.setattr(translations, name, lambda s, bad=bad: bad)
        assert main(["translations", "--law", law, "--in", str(shf)]) == 1
        assert capsys.readouterr() == (f"fail law={law}-law params=0,1,1,0 point=1 lhs=0 rhs=1\n", "")


def test_action_check_and_orbit(tmp_path):
    s = functors.heapify(groups.cyclic(3)).semiheap
    shf = tmp_path / "s.shf"
    shf.write_text(formats.write_shf1(s))
    act = formats.write_act1(translation_action(s))
    code, out, _ = run_cli(["action-check", "--semiheap", str(shf)], act)
    assert code == 0 and out.strip() == "pass action-compatible=true"
    corrupted = act.replace("\n0 1 2", "\n0 1 1", 1)
    code, out, _ = run_cli(["action-check", "--semiheap", str(shf)], corrupted)
    assert code == 1 and out == "fail law=action-compatibility point=0 quadruple=0,0,1,0 lhs=2 rhs=1\n"
    code, out, _ = run_cli(["orbit", "--semiheap", str(shf), "--point", "1"], act)
    assert code == 0
    assert out == "orbit point=1 size=3 members=0,1,2 symmetric=true\n"


def test_bundle_check(tmp_path, capsys):
    b = trivial_bundle(2, functors.heapify(groups.cyclic(2)).semiheap)
    text = formats.write_bnd1(b)
    code, out, _ = run_cli(["bundle-check"], text)
    assert code == 0 and out.strip() == "pass bundle=true"
    # One action entry changed, then one projection entry changed.
    head, body = text.split("action m=4 n=2\n")
    bad_action = f"{head}action m=4 n=2\n1{body[1:]}"
    bad_projection = text.replace("projection\n0 0 1 1", "projection\n0 1 1 1")
    for bad, line in ((bad_action, "fail axiom=action-compatibility witness=0,0,0,0,1\n"),
                      (bad_projection, "fail axiom=fiber-preservation witness=0,0,1,1\n")):
        path = tmp_path / "bad.bnd"
        path.write_text(bad)
        assert main(["bundle-check", "--in", str(path)]) == 1
        assert capsys.readouterr() == (line, "")


def test_bundle_check_reads_the_whole_text_before_verifying_its_structure(tmp_path, capsys):
    """A structure that is not para-associative fails the law (exit 1), but the same text with trailing
    garbage is malformed input (exit 2): the whole text is read before the structure is verified."""
    text = formats.write_bnd1(trivial_bundle(2, functors.heapify(groups.cyclic(2)).semiheap))
    bad = text.replace("semiheap n=2\n0 1 1 0\n1 0 0 1\n", "semiheap n=2\n0 1 1 1 1 1 1 0\n")
    assert bad != text
    for body, code, err in ((bad, 1, "fail law witness=ParaAssocCounterexample(quintuple=(0, 0, 1, 1, 1), "
                                     "outer=0, middle=1, inner=0)\n"),
                            (bad + "7\n", 2, "error input trailing garbage '7' at line 20, column 1\n")):
        path = tmp_path / "bad.bnd"
        path.write_text(body)
        assert main(["bundle-check", "--in", str(path)]) == code
        assert capsys.readouterr() == ("", err)


def test_enumerate_summary_lines():
    code, out, _ = run_cli(["enumerate", "--n", "2", "--no-tables"])
    assert code == 0
    assert out == "n=2 kind=semiheap count=8 iso_count=6 complete=true\n"
    code, out, _ = run_cli(["enumerate", "--n", "3", "--heaps", "--no-tables"])
    assert out.strip() == "n=3 kind=heap count=1 iso_count=1 complete=true"
    code, out, _ = run_cli(["enumerate", "--n", "2", "--up-to-iso", "--no-tables"])
    assert out.strip() == "n=2 kind=semiheap count=6 iso_count=6 complete=true"
    code, out, _ = run_cli(["enumerate", "--n", "3", "--no-tables"])
    assert out.strip() == "n=3 kind=semiheap count=135 iso_count=31 complete=true"


def test_enumerate_refuses_twelve_or_more_points():
    for n in ("12", "1000000"):
        code, out, err = run_cli(["enumerate", "--n", n, "--budget", "1", "--no-tables"])
        assert (code, out) == (2, "") and err.startswith(f"error unsupported semiheap census not supported for n={n}:")
    code, out, _ = run_cli(["enumerate", "--n", "11", "--budget", "0.5", "--no-tables"])
    assert (code, out) == (0, "n=11 kind=semiheap count=0 iso_count=0 complete=false\n")


def test_enumerate_counts_classes_beyond_four_points():
    code, out, _ = run_cli(["enumerate", "--n", "5", "--budget", "0.5", "--no-tables"])
    assert code == 0
    fields = dict(kv.split("=") for kv in out.split())
    assert fields["n"] == "5" and fields["complete"] == "false"
    # Whole orbits of the classes found: at most 5! tables each.
    assert 0 < int(fields["iso_count"]) <= int(fields["count"]) <= 120 * int(fields["iso_count"])


def test_enumerate_counts_classes_within_the_budget(capsys):
    # Labeled censuses are whole orbits of the classes the search found, and
    # the class count is the search's own; at n = 6 each orbit has up to 720
    # tables.  The n = 7 heap census takes about half a second, so it is cut
    # at 0.05 s: all 120 heaps on 7 points form one class.  Either run keeps
    # near its budget.
    start = time.perf_counter()
    assert main(["enumerate", "--n", "6", "--budget", "1", "--no-tables"]) == 0
    elapsed = time.perf_counter() - start
    fields = dict(kv.split("=") for kv in capsys.readouterr().out.split())
    assert fields["complete"] == "false" and int(fields["count"]) > 0
    assert elapsed < 2.5
    start = time.perf_counter()
    assert main(["enumerate", "--n", "7", "--heaps", "--budget", "0.05", "--no-tables"]) == 0
    elapsed = time.perf_counter() - start
    fields = dict(kv.split("=") for kv in capsys.readouterr().out.split())
    assert fields["complete"] == "false" and int(fields["count"]) == 120 * int(fields["iso_count"])
    assert elapsed < 2.5


def test_enumerate_up_to_iso_counts_the_classes_found(capsys):
    # n = 5, since the n = 4 census completes in about a second.
    assert main(["enumerate", "--n", "5", "--up-to-iso", "--budget", "1", "--no-tables"]) == 0
    fields = dict(kv.split("=") for kv in capsys.readouterr().out.split())
    assert fields["complete"] == "false" and int(fields["count"]) > 0
    assert fields["iso_count"] == fields["count"]
    # A heap census cut by its budget still prints classes: at most the
    # one class of the 7-point heaps, never its labeled tables.
    assert main(["enumerate", "--n", "7", "--heaps", "--up-to-iso", "--budget", "0.5", "--no-tables"]) == 0
    fields = dict(kv.split("=") for kv in capsys.readouterr().out.split())
    assert fields["iso_count"] == fields["count"] and int(fields["count"]) <= 1


def test_enumerate_rejects_a_negative_size(capsys):
    for kind in ([], ["--heaps"]):
        assert main(["enumerate", "--n", "-1", *kind, "--no-tables"]) == 2, kind
        out, err = capsys.readouterr()
        assert out == "" and "--n: must be non-negative, got -1" in err, kind


def test_enumerate_rejects_a_budget_that_is_not_a_non_negative_number(capsys):
    # A nan budget would never run out, and a negative one has run out
    # before the search starts; 0 stops at once, as from the API.
    for budget in ("nan", "-1", "-inf"):
        assert main(["enumerate", "--n", "5", f"--budget={budget}", "--no-tables"]) == 2, budget
        out, err = capsys.readouterr()
        assert out == "" and f"--budget: must be non-negative, got {budget}" in err, budget
    assert main(["enumerate", "--n", "3", "--budget", "0", "--no-tables"]) == 0
    assert capsys.readouterr().out == "n=3 kind=semiheap count=0 iso_count=0 complete=false\n"


def test_enumerate_heap_census_beyond_the_corpus_is_unsupported():
    # A refusal by design, not a budget that ran out.
    code, out, err = run_cli(["enumerate", "--n", "8", "--heaps", "--no-tables"])
    assert code == 2 and out == ""
    assert err.startswith("error unsupported heap census not supported for n=8")


def test_enumerate_streams_parseable_tables():
    code, out, _ = run_cli(["enumerate", "--n", "2"])
    assert code == 0
    blocks = out.strip().splitlines()
    assert blocks[-1].startswith("n=2 kind=semiheap")
    # tables parse back through SHF1
    text = "\n".join(blocks[:-1])
    chunks = text.split("semiheap ")
    tables = ["semiheap " + c for c in chunks if c.strip()]
    assert len(tables) == 8
    for t in tables:
        formats.parse_shf1(t)


def test_numeric_reports_echo_seed_and_are_deterministic():
    args = ["numeric", "para-assoc", "--chart", "so3", "--samples", "50", "--seed", "42"]
    code1, out1, _ = run_cli(args)
    code2, out2, _ = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "seed=42" in out1 and out1.startswith("check=para-assoc")


def test_numeric_report_line_format(capsys):
    assert main(["numeric", "exp-hom", "--seed", "7"]) == 0
    assert capsys.readouterr() == ("check=exp-hom max_residual=6.850e-16 seed=7 pass=true\n", "")


def test_numeric_rejects_a_tolerance_that_is_not_positive(capsys):
    # nan, 0 and a negative tolerance fail every check, however small its residual.
    for tol in ("nan", "0", "-1"):
        assert main(["numeric", "exp-hom", "--seed", "1", f"--tol={tol}"]) == 2, tol
        out, err = capsys.readouterr()
        assert out == "" and f"--tol: must be positive, got {tol}" in err, tol
    assert main(["numeric", "exp-hom", "--seed", "1", "--tol", "inf"]) == 0
    assert capsys.readouterr() == ("check=exp-hom max_residual=5.004e-16 seed=1 pass=true\n", "")


def test_numeric_rejects_a_negative_seed(capsys):
    # The sampler's generator takes no negative seed; the parser refuses one as malformed input.
    assert main(["numeric", "para-assoc", "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: semiheap numeric") and "--seed: must be non-negative, got -1" in err


def test_numeric_pushforward_line(capsys):
    assert main(["numeric", "pushforward", "--chart", "so3", "--seed", "42"]) == 0
    line = "check=pushforward res_h=1.716e-06 res_half=4.290e-07 ratio=4.000 seed=42 pass=true\n"
    assert capsys.readouterr() == (line, "")


def test_numeric_failing_check_exit_1():
    code, out, _ = run_cli(["numeric", "mult-function", "--chart", "r1", "--square",
                            "--samples", "10", "--seed", "1"])
    assert code == 1
    assert "pass=false" in out


def test_numeric_all_subchecks_pass():
    for sub, chart in [("para-assoc", "ut2"), ("pushforward", "so3"),
                       ("left-invariant", "so3"), ("group-vs-heap", "ut2"),
                       ("bracket", "so3"), ("mult-function", "r2"),
                       ("mult-field", "r1"), ("tangent", "so2"),
                       ("coassoc", "r3"), ("euclidean", "r3"), ("exp-hom", "so3")]:
        code, out, _ = run_cli(["numeric", sub, "--chart", chart,
                                "--samples", "20", "--seed", "5"])
        assert code == 0, (sub, out)


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "report.txt"
    code, out, _ = run_cli(["check", "--out", str(target)], XOR_HEAP)
    assert code == 0 and out == ""
    assert target.read_text().startswith("pass para-associative=true")


def test_orbit_point_outside_space_exit_2(tmp_path):
    s = functors.heapify(groups.cyclic(4)).semiheap
    shf = tmp_path / "s.shf"
    shf.write_text(formats.write_shf1(s))
    code, out, err = run_cli(["orbit", "--semiheap", str(shf), "--point", "9"],
                             formats.write_act1(translation_action(s)))
    assert code == 2 and out == ""
    assert err.startswith("error input point 9 outside space of size 4")


def test_numeric_rejects_no_samples():
    code, out, err = run_cli(["numeric", "para-assoc", "--samples", "0"])
    assert code == 2 and out == ""
    assert "--samples: must be positive" in err


def test_numeric_rejects_non_positive_step():
    for sub in ("pushforward", "left-invariant", "tangent"):
        code, out, err = run_cli(["numeric", sub, "--samples", "5", "--h", "0"])
        assert code == 2 and out == "", sub
        assert "--h: must be positive" in err


def test_numeric_step_defaults_to_each_checks_own(capsys):
    # Without --h a check runs at its own default step: the lines equal those at that step given.
    for sub, default in (("pushforward", "0.001"), ("left-invariant", "1e-05"), ("tangent", "1e-05")):
        argv = ["numeric", sub, "--samples", "20", "--seed", "3"]
        assert main(argv) == 0
        without = capsys.readouterr()
        assert main([*argv, "--h", default]) == 0
        assert capsys.readouterr() == without, sub


def test_numeric_mult_checks_draw_their_samples_a_slab_at_a_time(capsys):
    # mult-function and mult-field read their triples as they are drawn, as every other numeric
    # verb does, so a run's peak stays flat as --samples grows; the lines are those of every
    # sample drawn first.
    def peak(argv):
        tracemalloc.start()
        try:
            assert main([*argv, "--samples", "20000", "--seed", "42"]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(["numeric", "mult-function", "--chart", "r3"]) < 4 * 2 ** 20
    assert peak(["numeric", "mult-field"]) < 4 * 2 ** 20
    assert capsys.readouterr().out == ("check=mult-function max_residual=8.882e-16 seed=42 pass=true\n"
                                       "check=mult-field max_residual=8.216e-15 seed=42 pass=true\n")


def _verb_inputs(d):
    """Input files for one call of every verb, written to the directory d; returns d as a str."""
    s = functors.heapify(groups.cyclic(4)).semiheap
    files = {"xor.shf": XOR_HEAP, "y.shf": Y_TABLE, "z3.grp": formats.write_grp1(groups.cyclic(3)),
             "z4.shf": formats.write_shf1(s), "z4.act": formats.write_act1(translation_action(s)),
             "b.bnd": formats.write_bnd1(trivial_bundle(2, functors.heapify(groups.cyclic(2)).semiheap))}
    for name, text in files.items():
        (d / name).write_text(text)
    return str(d)


def test_one_process_answers_each_call_as_a_fresh_process_would(tmp_path, capsys, monkeypatch):
    # main reuses one parser per process; no call may leave state behind for the next.  A fresh
    # process loads each verb's modules as the verb runs, so its errors are reported the same way.
    # Help text is wrapped to COLUMNS, so both sides get the same width.
    monkeypatch.setenv("COLUMNS", "80")
    d, target = _verb_inputs(tmp_path), tmp_path / "census.shf"
    shf = f"{d}/xor.shf"
    calls = (["check", "--in", shf], ["check", "--bogus"], ["heapify", "--in", f"{d}/z3.grp"],
             ["groupify", "--in", shf], ["translations", "--in", shf, "--law", "right"],
             ["action-check", "--semiheap", f"{d}/z4.shf", "--in", f"{d}/z4.act"],
             ["orbit", "--semiheap", f"{d}/z4.shf", "--in", f"{d}/z4.act", "--point", "9"],
             ["bundle-check", "--in", f"{d}/b.bnd"], ["enumerate", "--n", "8", "--heaps"],
             ["enumerate", "--n", "2", "--out", str(target)], ["enumerate", "--n", "2"],
             ["numeric", "para-assoc", "--seed", "3"], ["numeric", "para-assoc", "--seed", "4"], ["--help"])
    fresh = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "semiheap.cli", *argv], capture_output=True, text=True,
                              env={**ENV, "COLUMNS": "80"}, stdin=subprocess.DEVNULL)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    written = target.read_text()
    target.unlink()
    assert build_parser() is build_parser()
    for argv, want in zip(calls, fresh):
        assert (main(argv), *capsys.readouterr()) == want, argv
    assert target.read_text() == written
    assert [code for code, _, _ in fresh] == [0, 2, 0, 0, 0, 0, 2, 0, 2, 0, 0, 0, 0, 0]
    assert fresh[6][2] == "error input point 9 outside space of size 4\n"
    assert fresh[8][2].startswith("error unsupported heap census not supported for n=8")
    assert fresh[10][1] == written and fresh[13][1].startswith("usage: semiheap")


def test_chart_choices_are_the_bundled_charts():
    assert list(CHARTS) == sorted(bundled_charts())


LOADED_BY_ALL = ["semiheap", "semiheap.cli", "semiheap.core"]
LOADED_BY_VERB = {
    "check": ["formats"], "heapify": ["formats", "functors", "groups"],
    "groupify": ["formats", "functors", "groups"], "translations": ["formats", "translations"],
    "action-check": ["actions", "formats", "functors", "groups"],
    "orbit": ["actions", "formats", "functors", "groups"],
    "bundle-check": ["actions", "bundles", "formats", "functors", "groups"],
    "enumerate": ["enumeration", "formats", "functors", "groups"], "numeric": ["charts", "numeric"],
}


def test_each_verb_loads_only_the_modules_it_runs(tmp_path):
    # A fresh interpreter per call; a module imported eagerly again shows up here.
    d = _verb_inputs(tmp_path)
    calls = {"check": ["--in", f"{d}/y.shf"], "heapify": ["--in", f"{d}/z3.grp"],
             "groupify": ["--in", f"{d}/xor.shf"], "translations": ["--in", f"{d}/y.shf", "--law", "left"],
             "action-check": ["--semiheap", f"{d}/z4.shf", "--in", f"{d}/z4.act"],
             "orbit": ["--semiheap", f"{d}/z4.shf", "--in", f"{d}/z4.act", "--point", "1"],
             "bundle-check": ["--in", f"{d}/b.bnd"], "enumerate": ["--n", "2", "--no-tables"],
             "numeric": ["para-assoc", "--samples", "2"]}
    probe = ("import sys\nimport semiheap.cli\nif sys.argv[1:]: semiheap.cli.main(sys.argv[1:])\n"
             "print('numpy' in sys.modules, *sorted(m for m in sys.modules if m.startswith('semiheap')))")
    runs = [([], []), (["--help"], [])] + [([verb, *args], LOADED_BY_VERB[verb]) for verb, args in calls.items()]
    for argv, extra in runs:
        proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=ENV,
                              stdin=subprocess.DEVNULL)
        assert proc.returncode == 0, (argv, proc.stderr)
        want = ["True", *sorted(LOADED_BY_ALL + [f"semiheap.{m}" for m in extra])]
        assert proc.stdout.splitlines()[-1].split() == want, argv


def test_every_public_name_resolves_and_functors_load_on_first_use():
    probe = ("import sys\nimport semiheap\nbefore = 'semiheap.functors' in sys.modules\nfrom semiheap import *\n"
             "from semiheap import functors, groups\n"
             "names = [getattr(semiheap, n) is globals()[n] for n in semiheap.__all__]\n"
             "print(before, all(names), heapify is functors.heapify, corpus is groups.corpus, hasattr(semiheap, 'x'))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=ENV)
    assert proc.stdout.split() == ["False", "True", "True", "True", "False"], proc.stderr


def test_integers_beyond_int64_exit_2():
    code, out, err = run_cli(["bundle-check"], f"bundle p=1 m={10 ** 29}\nprojection\n{2 ** 64}\n")
    assert (code, out) == (2, "")
    assert err.strip() == f"error input m={10 ** 29} out of range at line 1, column 12"
