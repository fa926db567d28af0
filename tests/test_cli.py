import hashlib
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

import ppcforge as pf
import ppcforge.cli as cli
from ppcforge.cli import main

from conftest import fano_union, recursion_headroom

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_design(tmp_path, design, name="design.txt", ppc=None):
    path = tmp_path / name
    path.write_text(pf.serialize(design, ppc=ppc))
    return str(path)


def test_construct_writes_the_frozen_file(tmp_path, capsys):
    out = tmp_path / "d.txt"
    rc, stdout, _ = run(capsys, "construct", "--rho", "3", "--v", "11", "--out", str(out))
    assert rc == 0
    assert "b=13" in stdout and "maximum PPC = 3 verified" in stdout
    assert out.read_text() == (DATA / "psts11.txt").read_text()


def test_construct_stdout_is_the_design(capsys):
    rc, stdout, stderr = run(capsys, "construct", "--rho", "2", "--v", "8")
    assert rc == 0
    design = pf.deserialize(stdout)
    assert design.v == 8 and design.b == 6
    assert "maximum PPC = 2 verified" in stderr


@pytest.mark.parametrize("rho,v", [(30, 90), (27, 81), (2, 56)])
def test_construct_past_the_room_squares(capsys, rho, v):
    # ell = v - rho >= 54 is past the sides whose strong starter the search
    # finds; the relabelled rainbow matching needs no square
    rc, _, stderr = run(capsys, "construct", "--rho", str(rho), "--v", str(v))
    assert rc == 0
    assert f"maximum PPC = {rho} verified" in stderr


def test_construct_parity_clash(capsys):
    rc, _, stderr = run(capsys, "construct", "--rho", "2", "--v", "9",
                        "--variant", "packed")
    assert rc == 1
    assert "needs v-rho even" in stderr


def test_trimmed_variant_by_default_for_odd(capsys):
    rc, stdout, stderr = run(capsys, "construct", "--rho", "2", "--v", "9")
    assert rc == 0
    assert "variant=trimmed" in stderr
    assert pf.deserialize(stdout).b == 2 * 8 // 2 + 0 - 2  # rho*ell/2 + D(2) - rho


def test_solve_ppc(tmp_path, capsys):
    path = write_design(tmp_path, pf.factor_join_packed(3, 8).design)
    rc, stdout, stderr = run(capsys, "solve-ppc", path)
    assert rc == 0
    assert stdout.splitlines()[0] == "max ppc = 3 (optimal)"
    assert len(stdout.splitlines()) == 4  # header + three class blocks
    assert "nodes:" in stderr and "time:" in stderr


# the exact bytes of an answer; stderr varies only in its time
@pytest.mark.parametrize("design,flags,rc,stdout,nodes", [
    (fano_union(1), [], 0, "max ppc = 1 (optimal)\n  0 1 3\n", 7),
    (pf.psts7_fixture(), [], 0, "max ppc = 2 (optimal)\n  0 1 2\n  3 4 5\n", 1),
    (fano_union(1), ["--budget", "2"], 3,
     "max ppc = 1 (budget-exhausted (lower bound))\n  0 1 3\n", 3),
    (pf.Design(5, ()), [], 0, "max ppc = 0 (optimal)\n", 0),
], ids=["fano", "psts7", "fano-budget-2", "v5-no-blocks"])
def test_solve_ppc_output_is_pinned(tmp_path, capsys, design, flags, rc, stdout, nodes):
    got_rc, got_stdout, stderr = run(capsys, "solve-ppc", write_design(tmp_path, design), *flags)
    assert (got_rc, got_stdout) == (rc, stdout)
    assert re.fullmatch(rf"nodes: {nodes}\ntime: \d+\.\d{{3}}s\n", stderr), stderr


def test_solve_ppc_budget_flag(tmp_path, capsys, fano):
    # neither the greedy transversal nor v//3 closes the Fano plane at the
    # root, so a starved solver genuinely runs out of budget
    path = write_design(tmp_path, fano)
    rc, stdout, _ = run(capsys, "solve-ppc", path, "--budget", "2")
    assert rc == 3
    assert "budget-exhausted (lower bound)" in stdout


@pytest.mark.parametrize("budget", ["0", "-5"])
@pytest.mark.parametrize("argv", [
    ["solve-ppc", "FILE"],
    ["construct", "--rho", "3", "--v", "11"],
    ["sequence", "find", "FILE"],
    ["oracle", "beta", "--rho", "1", "--v", "5"],
])
def test_budget_below_one_is_a_usage_error(tmp_path, capsys, fano, argv, budget):
    path = write_design(tmp_path, fano)
    argv = [path if a == "FILE" else a for a in argv]
    rc, stdout, stderr = run(capsys, *argv, "--budget", budget)
    assert rc == 1 and stdout == ""
    assert stderr == f"error: --budget must be at least 1, got {budget}\n"


def test_every_search_defaults_to_the_node_limit():
    assert pf.NODE_LIMIT == pf.core.NODE_LIMIT == 20_000_000
    for search in (pf.solve_max_ppc, pf.find_sequencing, pf.brute_beta):
        assert inspect.signature(search).parameters["budget"].default == pf.NODE_LIMIT
    parser = cli.build_parser()
    for argv in (["construct", "--rho", "3", "--v", "11"], ["solve-ppc", "d.txt"],
                 ["sequence", "find", "d.txt"], ["oracle", "beta", "--rho", "1", "--v", "5"]):
        assert parser.parse_args(argv).budget == pf.NODE_LIMIT


def test_budget_env_variable_is_ignored(tmp_path, capsys, monkeypatch, fano):
    monkeypatch.setenv("PPCFORGE_BUDGET", "2")
    rc, stdout, stderr = run(capsys, "solve-ppc", write_design(tmp_path, fano))
    assert rc == 0 and stdout.startswith("max ppc = 1 (optimal)\n")
    assert "PPCFORGE_BUDGET" not in stderr


def test_solve_ppc_past_the_recursion_limit_is_a_clean_error(tmp_path, capsys):
    path = write_design(tmp_path, fano_union(60))
    with recursion_headroom(60):
        limit = sys.getrecursionlimit()
        rc, stdout, stderr = run(capsys, "solve-ppc", path)
    assert rc == 1 and stdout == ""
    assert stderr == (
        f"error: exact PPC search on 420 points nests deeper than the recursion limit of {limit}\n"
    )


@pytest.mark.parametrize("rho", [8, 10])
def test_construct_verifies_v40(capsys, rho):
    # the apex points are a transversal of size rho, which proves the
    # maximum at the root; without that bound (10, 40) ran out of 200k nodes
    rc, _, stderr = run(capsys, "construct", "--rho", str(rho), "--v", "40")
    assert rc == 0
    assert f"maximum PPC = {rho} verified" in stderr


@pytest.mark.parametrize("rho,v", [(14, 42), (20, 60)])
def test_construct_verifies_past_rho13(capsys, rho, v):
    # the packing on the apex points is built in closed form for every rho;
    # a packing search capped at rho = 13 made (14, 42) exit 1
    rc, _, stderr = run(capsys, "construct", "--rho", str(rho), "--v", str(v))
    assert rc == 0
    assert f"maximum PPC = {rho} verified" in stderr


def test_module_runs_the_cli(capsys):
    argv = ["construct", "--rho", "2", "--v", "8"]
    rc, stdout, _ = run(capsys, *argv)
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(pf.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "ppcforge.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (rc, stdout)
    assert rc == 0 and stdout


def test_parser_is_built_once(tmp_path, capsys, monkeypatch, fano):
    built, real_build_parser = [], cli.build_parser

    def counting_build_parser():
        built.append(1)
        return real_build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    path = write_design(tmp_path, fano)
    assert run(capsys, "solve-ppc", path)[0] == 0
    assert run(capsys, "check-sts27")[0] == 0
    assert len(built) == 1
    for argv in (["check-sts27"], ["solve-ppc", path, "--budget", "1000000"]):
        assert run(capsys, *argv)[0] == 0
    assert len(built) == 1


def test_verify_accepts_the_frozen_file(capsys):
    rc, stdout, _ = run(capsys, "verify", str(DATA / "psts11.txt"))
    assert rc == 0
    assert stdout == "ok: v=11 b=13, embedded class of 3 disjoint blocks\n"


def test_verify_without_a_class(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text("v=7\n0 1 2\n")
    assert run(capsys, "verify", str(path)) == (0, "ok: v=7 b=1\n", "")


def test_verify_a_json_design(tmp_path, capsys):
    path = tmp_path / "fano.json"
    path.write_text(json.dumps({"v": 7, "blocks": fano_union(1).blocks}))
    assert run(capsys, "verify", str(path)) == (0, "ok: v=7 b=7\n", "")


def test_verify_rejects_pair_reuse(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("v=5\n0 1 2\n0 1 3\n")
    assert run(capsys, "verify", str(bad)) == (
        2, "invalid: pair (0, 1) appears in both (0, 1, 2) and (0, 1, 3)\n", "")


def test_verify_rejects_foreign_class_block(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("v=7\n# ppc: 0 1 3\n0 1 2\n3 4 5\n")
    assert run(capsys, "verify", str(bad)) == (
        2, "invalid: claimed class block (0, 1, 3) is not in the design\n", "")


def test_verify_rejects_overlapping_class(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("v=7\n# ppc: 0 1 2\n# ppc: 0 3 6\n0 1 2\n0 3 6\n")
    assert run(capsys, "verify", str(bad)) == (2, "invalid: claimed class reuses point 0\n", "")


_JSON_BAD = (
    '{"v": 7, "blocks": [[0, 1, 2.5]]}',
    '{"v": true, "blocks": []}',
    '{"v": 7, "blocks": [[0, 1, "x"]]}',
    '{"v": 7, "blocks": 5}',
)


@pytest.mark.parametrize("argv,text", [
    *((cmd, text) for text in _JSON_BAD for cmd in (["verify"], ["solve-ppc"])),
    (["verify"], "v=3\n# ppc: 0 1 x\n0 1 2\n"),
    (["oracle", "beta", "--rho", "3", "--v", "5"], None),
    (["oracle", "beta", "--rho", "1", "--v", "2"], None),
    # appended, not put among the cases above, so that their ids keep their indices
    *((cmd, '{"v": 7, "blocks": [[0, 1, 2]') for cmd in (["verify"], ["solve-ppc"])),
    (["verify"], "v=3\n# ppc: 0 1\n0 1 2\n"),
    # nested past the json module's recursion limit
    *(pytest.param(cmd, '{"v": 7, "blocks": ' + "[" * 100_000 + "]" * 100_000 + "}",
                   id=f"{cmd[0]}-nested-100000-deep") for cmd in (["verify"], ["solve-ppc"])),
])
def test_malformed_input_gets_one_message_line(tmp_path, capsys, argv, text):
    if text is not None:
        path = tmp_path / "bad.txt"
        path.write_text(text)
        argv = [*argv, str(path)]
    rc, stdout, stderr = run(capsys, *argv)
    assert rc == (2 if argv[0] == "verify" else 1)
    assert len((stdout + stderr).splitlines()) == 1
    assert "Traceback" not in stdout + stderr


BOM = b"\xef\xbb\xbf"  # U+FEFF in UTF-8


@pytest.mark.parametrize("argv", [
    ["solve-ppc", "BAD"],
    ["verify", "BAD"],
    ["sequence", "find", "BAD"],
    ["sequence", "check", "BAD", "SEQ"],
    ["sequence", "check", "DESIGN", "BAD"],
])
def test_a_file_that_is_not_utf8_is_one_error_line(tmp_path, capsys, argv):
    # behind a byte-order mark the bad byte is still named at its file offset
    bad = tmp_path / "bad.txt"
    seq = tmp_path / "seq.txt"
    seq.write_text(pf.sequencing_to_text(11, list(range(11))))
    files = {"BAD": str(bad), "SEQ": str(seq), "DESIGN": str(DATA / "psts11.txt")}
    for mark, offset in ((b"", 8), (BOM, 11)):
        bad.write_bytes(mark + b"v=7\n0 1 \xff\n")
        rc, stdout, stderr = run(capsys, *(files.get(a, a) for a in argv))
        assert (rc, stdout) == (1, "")
        assert stderr == f"error: {bad}: not UTF-8 text (invalid start byte at byte {offset})\n"


@pytest.mark.parametrize("text", [
    "# the Fano plane\n\nv=7\n0 1 3\n0 2 6\n0 4 5\n1 2 4\n1 5 6\n2 3 5\n3 4 6\n",
    '{"v": 7,\n "blocks": [[0, 1, 2]\n',  # a JSON error names its line and character
    "v=7\n# c\n\n0 1 x\n",
], ids=["fano", "bad-json", "bad-line"])
@pytest.mark.parametrize("cmd", ["verify", "solve-ppc"])
def test_crlf_and_cr_files_read_as_their_lf_twin(tmp_path, capsys, cmd, text):
    path = tmp_path / "design.txt"
    answers = []
    for end in ("\n", "\r\n", "\r"):
        path.write_bytes(text.replace("\n", end).encode())
        rc, stdout, stderr = run(capsys, cmd, str(path))
        answers.append((rc, stdout, re.sub(r"time: \S+", "", stderr)))
    assert answers[1] == answers[2] == answers[0]


@pytest.mark.parametrize("argv,marked", [
    (["verify", "DESIGN"], "DESIGN"),
    (["verify", "JSON"], "JSON"),
    (["solve-ppc", "DESIGN"], "DESIGN"),
    (["sequence", "find", "DESIGN"], "DESIGN"),
    (["sequence", "check", "DESIGN", "SEQ"], "DESIGN"),
    (["sequence", "check", "DESIGN", "SEQ"], "SEQ"),
], ids=["verify-text", "verify-json", "solve-ppc", "sequence-find", "sequence-check-design",
        "sequence-check-perm"])
def test_a_byte_order_mark_reads_as_its_plain_twin(tmp_path, capsys, argv, marked):
    design = (DATA / "psts11.txt").read_text()
    plain = {
        "DESIGN": design.encode(),
        "JSON": json.dumps({"v": 11, "blocks": pf.deserialize(design).blocks}).encode(),
        "SEQ": pf.sequencing_to_text(11, list(range(11))).encode(),
    }
    answers = []
    for data in (plain[marked], BOM + plain[marked]):
        files = {**plain, marked: data}
        for name, content in files.items():
            (tmp_path / name).write_bytes(content)
        rc, stdout, stderr = run(capsys, *(str(tmp_path / a) if a in files else a for a in argv))
        answers.append((rc, stdout, re.sub(r"time: \S+", "", stderr)))
    assert answers[0][1] and answers[1] == answers[0]


@pytest.mark.parametrize("text,message", [
    ("\ufeff\ufeffv=7\n0 1 2\n", "line 1: expected 'v=<int>' header"),
    ("\n\ufeffv=7\n0 1 2\n", "line 2: expected 'v=<int>' header"),
    ("v=7\n\ufeff0 1 2\n", "line 2: non-integer point in '\\ufeff0 1 2'"),
    ("v=7\n0 1 2\ufeff\n", "line 2: non-integer point in '0 1 2\\ufeff'"),
], ids=["second-mark", "mark-on-line-2", "mark-before-a-block", "mark-after-a-block"])
def test_a_feff_past_the_first_character_is_not_dropped(tmp_path, capsys, text, message):
    path = tmp_path / "design.txt"
    path.write_text(text, encoding="utf-8")
    assert run(capsys, "verify", str(path)) == (2, f"invalid: {message}\n", "")


def test_table1_is_the_bounds_shorthand(capsys):
    rc1, rows1, _ = run(capsys, "table1", "--format", "rows")
    rc2, rows2, _ = run(capsys, "bounds", "--v", "27", "--rho-max", "9",
                        "--with-known", "--format", "rows")
    assert rc1 == rc2 == 0
    assert rows1 == rows2
    assert len(rows1.splitlines()) == 9


def test_bounds_rows_tag_a_known_value_that_beats_both_bounds(capsys):
    rc, stdout, _ = run(capsys, "bounds", "--v", "7", "--with-known", "--format", "rows")
    assert rc == 0
    assert stdout.splitlines()[1] == "2,0,5,5,5,lower=known-special;upper=known-special"


def test_bounds_text_format(capsys):
    rc, stdout, _ = run(capsys, "bounds", "--v", "27", "--rho-max", "3")
    assert rc == 0
    assert stdout.splitlines()[0].split() == ["rho", "D(rho)", "lower", "upper"]


def test_bounds_refuses_a_point_count_below_1(capsys):
    assert run(capsys, "bounds", "--v", "0") == (
        1, "", "error: point count must be a positive integer, got 0\n")


@pytest.mark.parametrize("fmt", ["text", "rows"])
@pytest.mark.parametrize("argv, message", [
    (("--v", "2"), "no rho >= 1 fits v=2"),
    (("--v", "27", "--rho-max", "0"), "no rho >= 1 fits v=27 with --rho-max 0"),
    (("--v", "27", "--rho-max", "-1"), "no rho >= 1 fits v=27 with --rho-max -1"),
])
def test_bounds_refuses_a_table_with_no_row(capsys, argv, message, fmt):
    assert run(capsys, "bounds", *argv, "--format", fmt) == (1, "", f"error: {message}\n")
    assert pf.bound_table(*map(int, argv[1::2])) == []


# stdout, stderr, exit code and --out file of the commands that route a
# note, with and without --out; recorded before the routing moved into _emit
_NOTE_PINS = {
    ("construct --rho 3 --v 11", False): "316f55e474fda74932b7bc5aadfee1c6bba4ff1d891a73b9dbd1e6df761930be",
    ("construct --rho 3 --v 11", True): "b7c9466afbfc36de96d20048629720de90d86cdaf9b57fa4f358d010b420a915",
    ("construct --rho 3 --v 12", False): "735f4e33a9d4f8f1f4b9f2f3901314eb3dd7b76dafca11eca80e732861f0fe3e",
    ("construct --rho 3 --v 12", True): "1b9183c4cd6df11ce44c6ec66bd24526f4da1dbabfb9168881f9169eabb79412",
    ("construct --rho 2 --v 10 --variant pure", False): "5ecd9a546c2ceb73307c42fee71562a267471960f8d732291f574f738069352a",
    ("construct --rho 2 --v 10 --variant pure", True): "84ba94e09278463369c9a13ae01806d5ace140e3254a186bd956ce3884cb0335",
    ("sequence find psts7", False): "4de472b4f7c666f5299465b624a654a4d91aefca2b44320e7d6d694ebb8df862",
    ("sequence find psts7", True): "360407d343b4cf99a160646f5ab24e2665f02b081befa58c663623734db91254",
    ("sequence find fano", False): "dcec62eb9811861d55e3c9197c6cdeb8d1949fa70b26cd41ca4858e7c4a11788",
    ("sequence find fano", True): "54653cdbde017bf20ce378a136649c44cc2f05cfa38dc40322b909e28d4d1952",
    ("sequence find spanning6", False): "9685e6682a60a0fe237ec8fe5ecbfb9126f882c03a917eb1e2000c908ad8aba6",
    ("sequence find spanning6", True): "9685e6682a60a0fe237ec8fe5ecbfb9126f882c03a917eb1e2000c908ad8aba6",
    ("sequence find fano --budget 3", False): "b8b11e3aa050461f5851782335a80afd701d7c42139a192b406a9359503853a7",
    ("sequence find fano --budget 3", True): "b8b11e3aa050461f5851782335a80afd701d7c42139a192b406a9359503853a7",
    ("roomsquare --side 7", False): "99f8fd4a2f3fd17cfdcfa777e3c99ed7f3eb3ffd3ee472a4217fbebc5fafe0be",
    ("roomsquare --side 7", True): "f9e618fff0d5ee375c11c5144f72b07e2217226ac7350e62c7583019416fdd97",
    ("roomsquare --side 9", False): "b9812839ebea2a063c91d3ee8e6b0b360aea2b175450435a221156c150678bf8",
    ("roomsquare --side 9", True): "33f4970425b62444fad6649ae7ee41b07e5dd44598fae831cbf2d6dd17305900",
    ("roomsquare --side 15", False): "0d2066a1ed049fa0c178095058441deb88138fc21be5bbbdeb01d5be2b291442",
    ("roomsquare --side 15", True): "ab7808e6dab3434d736a5f63651f292d6c773b4dd523c9e80d899867365206a9",
}
_PIN_DESIGNS = {
    "psts7": pf.serialize(pf.psts7_fixture()),
    "fano": "v=7\n0 1 3\n0 2 6\n0 4 5\n1 2 4\n1 5 6\n2 3 5\n3 4 6\n",
    "spanning6": "v=6\n0 1 2\n3 4 5\n",
}


@pytest.mark.parametrize("case,out", sorted(_NOTE_PINS))
def test_routed_notes_are_byte_identical(tmp_path, capsys, case, out):
    for name, text in _PIN_DESIGNS.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in _PIN_DESIGNS else a for a in case.split()]
    path = tmp_path / "out.txt"
    if out:
        argv += ["--out", str(path)]
    rc, stdout, stderr = run(capsys, *argv)
    written = path.read_text() if path.exists() else ""
    blob = f"{rc}\0{stdout}\0{stderr}\0{written}"
    assert hashlib.sha256(blob.encode()).hexdigest() == _NOTE_PINS[case, out]


def test_sequence_find_then_check(tmp_path, capsys):
    dpath = write_design(tmp_path, pf.psts7_fixture())
    spath = tmp_path / "seq.txt"
    nodes = pf.find_sequencing(pf.psts7_fixture()).nodes
    rc, stdout, stderr = run(capsys, "sequence", "find", dpath, "--out", str(spath))
    assert rc == 0 and stdout == f"sequencing found ({nodes} nodes)\n" and stderr == ""
    # without --out stdout is the sequencing file, byte for byte, and the
    # node count goes to stderr
    rc, stdout, stderr = run(capsys, "sequence", "find", dpath)
    assert rc == 0 and stdout == spath.read_text()
    assert stderr == f"sequencing found ({nodes} nodes)\n"
    rc, stdout, _ = run(capsys, "sequence", "check", dpath, str(spath))
    assert rc == 0 and stdout == "valid sequencing\n"


def test_sequence_find_names_the_nodes_of_an_exhausted_budget(tmp_path, capsys):
    dpath = write_design(tmp_path, pf.factor_join_packed(4, 10).design)
    rc, stdout, stderr = run(capsys, "sequence", "find", dpath, "--budget", "1000")
    assert rc == 3 and stdout == ""
    assert stderr == "not found within budget (1001 nodes; not a nonsequenceability proof)\n"


def test_sequence_check_reports_violation(tmp_path, capsys):
    dpath = write_design(tmp_path, pf.psts7_fixture())
    ppath = tmp_path / "perm.txt"
    ppath.write_text("v=7\n0 1 2 3 4 5 6\n")
    rc, stdout, _ = run(capsys, "sequence", "check", dpath, str(ppath))
    assert rc == 2
    assert stdout == "invalid: window of 3 points at position 0 is a union of 1 blocks\n"


def test_sequence_check_skips_indented_comment_lines(tmp_path, capsys):
    dpath = write_design(tmp_path, pf.validate(4, [(0, 1, 2)]))
    ppath = tmp_path / "perm.txt"
    ppath.write_text("v=4\n  # 0 1 2 would repeat the block\n0 1 3 2\n")
    rc, stdout, _ = run(capsys, "sequence", "check", dpath, str(ppath))
    assert rc == 0 and stdout == "valid sequencing\n"


def test_sequence_check_names_the_line_of_a_bad_entry(tmp_path, capsys):
    dpath = write_design(tmp_path, pf.factor_join_packed(3, 8).design)
    ppath = tmp_path / "perm.txt"
    ppath.write_text("v=11\n0 1 x\n")
    rc, stdout, stderr = run(capsys, "sequence", "check", dpath, str(ppath))
    assert rc == 1 and stdout == ""
    assert stderr == "error: line 2: non-integer entry in '0 1 x'\n"


def test_sequence_check_v_mismatch(tmp_path, capsys):
    dpath = write_design(tmp_path, pf.psts7_fixture())
    ppath = tmp_path / "perm.txt"
    ppath.write_text("v=6\n0 1 2 3 4 5\n")
    rc, _, stderr = run(capsys, "sequence", "check", dpath, str(ppath))
    assert rc == 1 and "v=6" in stderr


def test_sequence_find_proves_impossibility(tmp_path, capsys):
    dpath = write_design(tmp_path, pf.validate(3, [(0, 1, 2)]))
    rc, stdout, stderr = run(capsys, "sequence", "find", dpath)
    assert rc == 2
    # stdout is the line every earlier release printed; the proof goes to stderr
    assert stdout == "nonsequenceable: the search space was exhausted\n"
    assert stderr == "proof: spanning class, 1 nodes\n"


def test_sequence_find_past_the_recursion_limit_is_a_clean_error(tmp_path, capsys):
    dpath = write_design(tmp_path, pf.validate(1200, [(0, 1, 2), (3, 4, 5)]))
    rc, stdout, stderr = run(capsys, "sequence", "find", dpath)
    assert rc == 1 and stdout == ""
    assert stderr.startswith("error: sequencing search on 1200 points nests deeper")
    assert stderr.count("\n") == 1


def test_roomsquare_output_validates(capsys):
    rc, stdout, _ = run(capsys, "roomsquare", "--side", "9")
    assert rc == 0
    square = pf.room_from_text(stdout)
    pf.validate_room(square)
    assert square.side == 9


def test_roomsquare_validates_its_square_once(monkeypatch, capsys):
    calls = []
    check = pf.onefactor.validate_room

    def counted(square):
        calls.append(square.side)
        check(square)

    monkeypatch.setattr(pf.onefactor, "validate_room", counted)
    # a check the command itself would import and call counts too
    monkeypatch.setattr(cli, "validate_room", counted, raising=False)
    pf.room_square.cache_clear()
    try:
        rc, stdout, _ = run(capsys, "roomsquare", "--side", "15")
    finally:
        pf.room_square.cache_clear()
    assert rc == 0 and pf.room_from_text(stdout).side == 15
    assert calls == [15]


def test_construct_reads_stored_starters(monkeypatch, capsys):
    def no_search(n):
        raise AssertionError(f"strong_starter({n}) called")

    monkeypatch.setattr(pf.onefactor, "strong_starter", no_search)
    pf.room_square.cache_clear()
    try:
        rc, stdout, stderr = run(capsys, "construct", "--rho", "3", "--v", "27")
    finally:
        pf.room_square.cache_clear()
    assert rc == 0 and stdout.startswith("v=27\n")
    assert "maximum PPC = 3 verified" in stderr


def test_construct_rejects_a_bad_witness(monkeypatch, capsys):
    sel = pf.select_factors(8, 3)
    overlapping = (sel.reps[0], sel.reps[0], sel.reps[2])
    monkeypatch.setattr(pf.construct, "select_factors",
                        lambda ell, rho: pf.onefactor.FactorSelection(sel.factors, overlapping))
    rc, stdout, stderr = run(capsys, "construct", "--rho", "3", "--v", "11")
    assert rc == 1 and stdout == ""
    # the build is not checked; certify refuses its witness
    assert stderr == "error: class block (0, 7, 9) is not in the design\n"


@pytest.mark.parametrize("rho,v,head,digest", [
    (8, 24, "PSTS(24) with b=72 blocks, variant=packed; maximum PPC = 8 verified",
     "174fd7397932baa3623547577f263a25b5393fb34ac3c294191c2b7d3698d41e"),
    (20, 61, "PSTS(61) with b=460 blocks, variant=trimmed; maximum PPC = 20 verified",
     "7f656d3b16cc1e2be4817e15c5a62cd259c6c9108e308eaf481925b971296ae5"),
])
def test_construct_never_searches(monkeypatch, capsys, rho, v, head, digest):
    # stdout digests recorded when construct still proved the maximum with
    # the solver ((8, 24) took 73 nodes, so --budget 1 then exited 3)
    def no_search(*args, **kwargs):
        raise AssertionError("construct called solve_max_ppc")

    monkeypatch.setattr(cli, "solve_max_ppc", no_search)
    monkeypatch.setattr(pf.ppc, "solve_max_ppc", no_search)
    rc, stdout, stderr = run(capsys, "construct", "--rho", str(rho), "--v", str(v), "--budget", "1")
    assert rc == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest
    assert stderr.splitlines()[0] == head


def test_construct_refuses_a_failed_certificate(monkeypatch, capsys):
    real = pf.construct.FACTOR_JOINS["packed"]

    def apex_swapped(rho, ell):
        w = real(rho, ell)
        return w._replace(s_points=(0, *w.s_points[1:]))

    monkeypatch.setitem(pf.construct.FACTOR_JOINS, "packed", apex_swapped)
    rc, stdout, stderr = run(capsys, "construct", "--rho", "3", "--v", "11")
    assert rc == 1 and stdout == ""
    assert stderr == "error: block (1, 5, 8) misses the cover\n"


def test_roomsquare_past_the_stored_sides_fails_at_once(capsys):
    t0 = time.perf_counter()
    rc, stdout, stderr = run(capsys, "roomsquare", "--side", "53")
    assert time.perf_counter() - t0 < 1
    assert rc == 1 and stdout == ""
    assert stderr == (
        "error: ppcforge builds Room squares of odd sides 7 to 51 only "
        "(one exists for every odd side >= 7), got 53\n"
    )


def test_roomsquare_even_side_fails(capsys):
    rc, stdout, stderr = run(capsys, "roomsquare", "--side", "8")
    assert rc == 1 and stdout == ""
    assert stderr == "error: Room squares need an odd side >= 7, got 8\n"


def test_oracle_beta(capsys):
    rc, stdout, _ = run(capsys, "oracle", "beta", "--rho", "1", "--v", "5")
    assert rc == 0
    lines = stdout.splitlines()
    assert lines[0] == "beta(1,5) = 2"
    witness = pf.deserialize("\n".join(lines[lines.index("witness:") + 1:]))
    assert witness.v == 5 and witness.b == 2


def test_oracle_beta_answers_at_its_cap_and_refuses_past_it(capsys):
    rc, stdout, _ = run(capsys, "oracle", "beta", "--rho", "1", "--v", "9")
    assert rc == 0 and stdout.splitlines()[0] == "beta(1,9) = 7"
    rc, stdout, stderr = run(capsys, "oracle", "beta", "--rho", "2", "--v", "10", "--budget", "100")
    assert rc == 1 and stdout == ""
    assert stderr == "error: v=10 exceeds the oracle cap of 9\n"


def test_oracle_beta_exits_3_on_an_exhausted_budget(capsys):
    result = pf.brute_beta(2, 9, budget=100)
    assert not result.complete
    rc, stdout, stderr = run(capsys, "oracle", "beta", "--rho", "2", "--v", "9", "--budget", "100")
    assert rc == 3 and stdout == ""
    assert stderr == f"budget exhausted; best found so far {result.value}\n"


def test_check_sts27(capsys):
    rc, stdout, _ = run(capsys, "check-sts27")
    assert rc == 0
    assert stdout == "ok: 8 sum-zero triples, 24 distinct points\n"


def test_check_sts27_refuses_a_triple_that_does_not_sum_to_zero(capsys, monkeypatch):
    monkeypatch.setattr("ppcforge.construct.STS27_TRIPLES", (((1, 0), (1, 1), (3, 3)),))
    assert run(capsys, "check-sts27") == (
        2, "invalid: triple {10,11,33} sums to (0,4), not (0,0)\n", "")


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "construct", "--rho", "3")[0] == 1
    assert run(capsys)[0] == 1


def test_missing_file_exits_one(capsys):
    rc, _, stderr = run(capsys, "solve-ppc", "/nonexistent/design.txt")
    assert rc == 1 and "error:" in stderr
