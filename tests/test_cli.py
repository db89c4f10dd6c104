import os
import subprocess
import sys
import time
from pathlib import Path

import semiheap
from semiheap import formats, functors, groups
from semiheap.actions import translation_action
from semiheap.cli import main

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
    assert out.startswith("fail law=para-associative quintuple=")


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
    assert out.startswith("fail axiom=identity")


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
    assert code == 0 and out.startswith("witness law=centric-nonclosure")


def test_action_check_and_orbit(tmp_path):
    s = functors.heapify(groups.cyclic(3)).semiheap
    shf = tmp_path / "s.shf"
    shf.write_text(formats.write_shf1(s))
    act = formats.write_act1(translation_action(s))
    code, out, _ = run_cli(["action-check", "--semiheap", str(shf)], act)
    assert code == 0 and out.strip() == "pass action-compatible=true"
    corrupted = act.replace("\n0 1 2", "\n0 1 1", 1)
    code, out, _ = run_cli(["action-check", "--semiheap", str(shf)], corrupted)
    assert code == 1 and out.startswith("fail law=action-compatibility")
    code, out, _ = run_cli(["orbit", "--semiheap", str(shf), "--point", "1"], act)
    assert code == 0
    assert "size=3" in out and "symmetric=true" in out


def test_bundle_check(tmp_path):
    from semiheap.bundles import trivial_bundle
    b = trivial_bundle(2, functors.heapify(groups.cyclic(2)).semiheap)
    code, out, _ = run_cli(["bundle-check"], formats.write_bnd1(b))
    assert code == 0 and out.strip() == "pass bundle=true"


def test_enumerate_summary_lines():
    code, out, _ = run_cli(["enumerate", "--n", "2", "--no-tables"])
    assert code == 0
    assert out.strip() == "n=2 kind=semiheap count=8 iso_count=6 complete=true"
    code, out, _ = run_cli(["enumerate", "--n", "3", "--heaps", "--no-tables"])
    assert out.strip() == "n=3 kind=heap count=1 iso_count=1 complete=true"
    code, out, _ = run_cli(["enumerate", "--n", "2", "--up-to-iso", "--no-tables"])
    assert out.strip() == "n=2 kind=semiheap count=6 iso_count=6 complete=true"
    code, out, _ = run_cli(["enumerate", "--n", "3", "--no-tables"])
    assert out.strip() == "n=3 kind=semiheap count=135 iso_count=31 complete=true"


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
