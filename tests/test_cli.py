import argparse
import json

import pytest

from nsvertex import cli, fields
from nsvertex.cli import main
from nsvertex.fields import NotLocalError

ONE_TERM = [{"num": 1, "den": 1, "rad": 1}]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


def test_catalog_lists_nine_families(capsys):
    code, report, err = run_json(capsys, ["catalog"])
    assert code == 0
    assert report["count"] == 9
    assert len(report["rows"]) == 9
    families = [row["family"] for row in report["rows"]]
    assert families.count("E") == 3
    for row in report["rows"]:
        assert set(row) == {"family", "rank", "dim", "dual_coxeter"}
    assert "9" in err


def test_gram_affine_level_one_is_identity(capsys):
    code, report, _ = run_json(capsys, [
        "gram", "--module", '{"type":"affine","algebra":"sl2","level":1}',
        "--level", "1"])
    assert code == 0
    assert report["dim"] == 3
    for i in range(3):
        for j in range(3):
            expected = ONE_TERM if i == j else []
            assert report["matrix"][i][j] == expected


def test_gram_ns_verma_null_level(capsys):
    code, report, _ = run_json(capsys, [
        "gram", "--module", '{"type":"ns_verma","c":"1/2","h":"0"}',
        "--level", "1/2"])
    assert code == 0
    assert report["matrix"] == [[[]]]


def test_gram_fermion_vacuum(capsys):
    code, report, _ = run_json(capsys, [
        "gram", "--module", '{"type":"fermion","colors":1}', "--level", "0"])
    assert code == 0
    assert report["matrix"] == [[ONE_TERM]]


def test_nullvec_counts_kernel(capsys):
    code, report, _ = run_json(capsys, [
        "nullvec", "--module", '{"type":"ns_verma","c":"1/2","h":"0"}',
        "--level", "1/2"])
    assert code == 0
    assert report["dim"] == 1
    assert report["null_count"] == 1
    assert len(report["vectors"]) == 1


def test_ghosts_unitary_point_has_no_negatives(capsys):
    code, report, _ = run_json(capsys, [
        "ghosts", "--c", "1/2", "--h", "0", "--depth", "2"])
    assert code == 0
    assert report["has_ghost"] is False
    for level in report["levels"]:
        assert level["negative"] == 0


@pytest.mark.parametrize("argv, grade", [
    (["--c", "-1", "--h", "0", "--depth", "2"], "3/2"),
    # a negative fraction after a space is a value, not an option
    (["--sector", "virasoro", "--c", "1/2", "--h", "-1/4", "--depth", "1"],
     "1"),
    (["--c", "-1/2", "--h", "1/4", "--depth", "3"], "3/2"),
])
def test_ghosts_with_a_negative_norm_exit_one(capsys, argv, grade):
    code, report, _ = run_json(capsys, ["ghosts"] + argv)
    assert code == 1
    assert report["has_ghost"] is True
    assert report["first_negative_grade"] == grade


def test_ope_fermion_pair(capsys):
    code, report, _ = run_json(capsys, [
        "ope", "--module", '{"type":"fermion","colors":1}',
        "--field-a", '{"gen":"psi"}', "--field-b", '{"gen":"psi"}',
        "--depth", "2"])
    assert code == 0
    assert report["order"] == 1
    assert report["bracket"] == "anticommutator"
    assert report["parity_consistent"] is True
    assert report["singular"]["0"] == [
        {"state": {"word": [], "floor": 0}, "coeff": ONE_TERM}]


def test_brackets_match_expansion_on_verma(capsys):
    code, report, _ = run_json(capsys, [
        "brackets", "--module", '{"type":"ns_verma","c":"1/2","h":"0"}',
        "--field-a", '{"gen":"L"}', "--field-b", '{"gen":"G"}',
        "--depth", "2"])
    assert code == 0
    assert report["valid"] is True
    assert report["checked"] > 0
    assert report["failures"] == []


def test_sugawara_level_one(capsys):
    code, report, _ = run_json(capsys, [
        "sugawara", "--algebra", "sl2", "--level", "1", "--depth", "1"])
    assert code == 0
    assert report["central_charge"] == ONE_TERM
    assert report["closed_form"] == ONE_TERM
    assert report["match"] is True


def test_susy_check_level_one(capsys):
    code, report, err = run_json(capsys, [
        "susy-check", "--algebra", "sl2", "--level", "1", "--depth", "2"])
    assert code == 0
    assert report["c_total"] == [{"num": 5, "den": 2, "rad": 1}]
    assert report["c_fermion"] == [{"num": 3, "den": 2, "rad": 1}]
    assert report["c_boson"] == ONE_TERM
    assert report["match"] is True
    for check in report["checks"]:
        assert set(check) == {"relation", "depth", "status"}
        assert check["status"] == "pass"
    assert "5/2" in err


def test_module_weights_spin_half(capsys):
    code, report, _ = run_json(capsys, [
        "module", "--algebra", "sl2", "--level", "1", "--spin", "1/2",
        "--depth", "1"])
    assert code == 0
    assert report["h"] == [{"num": 1, "den": 4, "rad": 1}]
    assert report["valid"] is True
    assert report["levels"][0]["dim"] == 2


def test_cocycle_report(capsys):
    code, report, _ = run_json(capsys, [
        "cocycle", "--nmax", "8", "--smax", "7/2"])
    assert code == 0
    assert report["even"]["dimension"] == 2
    assert report["even"]["valid"] is True
    assert len(report["odd"]["cases"]) == 3
    for case in report["odd"]["cases"]:
        assert case["valid"] is True


@pytest.mark.parametrize("smax", [["--smax=0"], ["--smax=-1/2"],
                                  ["--smax", "-1/2"]])
def test_cocycle_with_no_odd_pair_exits_two_before_any_work(capsys,
                                                            monkeypatch,
                                                            smax):
    # an empty odd sweep would pass vacuously
    import nsvertex.cli as cli
    monkeypatch.setattr(cli, "cocycle_basis", None)
    code, out, err = run(capsys, ["cocycle", "--nmax", "8"] + smax)
    assert code == 2
    assert out == ""
    assert err.startswith("error: smax must be at least 1/2")


def test_cocycle_smallest_odd_sweep_is_valid(capsys):
    code, report, _ = run_json(capsys, [
        "cocycle", "--nmax", "8", "--smax", "1/2"])
    assert code == 0
    assert report["odd"]["smax"] == "1/2"
    assert [case["valid"] for case in report["odd"]["cases"]] == [True] * 3


@pytest.mark.parametrize("construction", ["fermion", "g-fermion", "sugawara",
                                          "super"])
def test_axioms_pass_for_each_construction(capsys, construction):
    code, report, _ = run_json(capsys, [
        "axioms", "--construction", construction, "--depth", "1",
        "--seed", "7"])
    assert code == 0
    assert report["valid"] is True
    assert report["adjoint"]["checked"] > 0
    assert report["adjoint"]["failures"] == []


def test_susy_check_on_u1(capsys):
    # the internal current of an abelian algebra vanishes, so G is the
    # boson-fermion term alone
    code, report, err = run_json(capsys, [
        "susy-check", "--algebra", '{"name":"u1","dim":1,"gamma":[]}',
        "--level", "1", "--depth", "1"])
    assert code == 0
    assert report["c_total"] == [{"num": 3, "den": 2, "rad": 1}]
    assert report["match"] is True
    assert all(check["status"] == "pass" for check in report["checks"])


def test_reports_are_byte_identical(capsys):
    argv = ["susy-check", "--algebra", "sl2", "--level", "1", "--depth", "1"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_validate_sl2(capsys):
    code, report, _ = run_json(capsys, ["validate", "--algebra", "sl2"])
    assert code == 0
    assert report["valid"] is True
    assert report["dim"] == 3


# the triples (1,2,3) and (1,4,5) share X_1 and nothing closes them:
# Jacobi and the normalization both fail
NON_JACOBI = ('{"name":"x","dim":5,"gamma":[{"a":1,"b":2,"c":3,"val":1},'
              '{"a":1,"b":4,"c":5,"val":1}]}')


def test_validate_names_the_failing_checks(capsys):
    code, out, err = run(capsys, ["validate", "--algebra", NON_JACOBI])
    assert code == 1
    report = json.loads(out)
    assert report["checks"] == {
        "real": True, "antisymmetric": True, "jacobi": False,
        "normalized": False}
    # X_1 brackets into both triples, so the Jacobi sums that mix them
    # fail, and only X_1 has the norm 2 g of the first diagonal entry
    assert report["failures"] == {
        "jacobi": [{"a": a, "b": b, "c": c} for a, b in
                   ((2, 3), (3, 2), (4, 5), (5, 4))
                   for c in ((4, 5) if a < 4 else (2, 3))],
        "normalized": [{"b": b, "d": b} for b in (2, 3, 4, 5)]}
    assert err == "algebra x: INVALID: jacobi, normalized\n"
    code, out, err = run(capsys, ["sugawara", "--algebra", NON_JACOBI,
                                  "--level", "1"])
    assert (code, out) == (2, "")
    assert err == ("error: invalid structure constants for x: jacobi, "
                   "normalized\n")


def test_malformed_inputs_exit_two(capsys):
    cases = [
        ["gram", "--module", '{"type":"bogus"}', "--level", "1"],
        ["gram", "--module", '{broken', "--level", "1"],
        ["ghosts", "--c", "1/2", "--h", "0", "--depth", "0"],
        ["ghosts", "--c", "1/2", "--h", "0", "--depth", "1/3"],
        ["ope", "--module", '{"type":"fermion","colors":1}',
         "--field-a", '{"gen":"bogus"}', "--field-b", '{"gen":"psi"}'],
        ["module", "--algebra", "sl2", "--level", "1", "--spin", "3/2"],
    ]
    for argv in cases:
        code, _, err = run(capsys, argv)
        assert code == 2, argv
        assert "error" in err


FLIPPED_SL2 = ('{"name":"sl2","dim":3,"gamma":[{"a":1,"b":2,"c":3,'
               '"val":[{"num":-1,"den":1,"rad":2}]}]}')


@pytest.mark.parametrize("argv", [
    ["module", "--algebra", FLIPPED_SL2, "--level", "1", "--spin", "1/2",
     "--depth", "1"],
    ["nullvec", "--module", '{"type":"affine","algebra":' + FLIPPED_SL2
     + ',"level":1,"spin":"1/2"}', "--level", "1"],
])
def test_spin_floor_of_a_flipped_sl2_table_exits_two(capsys, argv):
    # a valid table named sl2 whose sign the floor matrices do not
    # represent
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: spin floors are available for sl2 only: "
                          "the floor matrices represent Gamma_12^3 = "
                          "sqrt(2), and the table 'sl2' has other "
                          "structure constants")


@pytest.mark.parametrize("argv, message", [
    (["gram", "--module", "[1]", "--level", "1"],
     "module descriptor must be an object"),
    (["gram", "--module",
      '{"type":"tensor","factors":[{"type":"affine","level":1},[2]]}',
      "--level", "1"], "module descriptor must be an object"),
    (["ope", "--module", '{"type":"fermion"}', "--field-a", '{"gen":"L"}',
      "--field-b", '{"gen":"psi"}'], "FockModule has no L modes"),
    (["sugawara", "--algebra", '{"name":"x","dim":0,"gamma":[]}',
      "--level", "1"], "x has no dual Coxeter number"),
    (["validate", "--algebra", '{"name":"x","dim":-2,"gamma":[]}'],
     "dim must be a nonnegative integer, got -2"),
    (["validate", "--algebra", '{"name":"x","dim":true,"gamma":[]}'],
     "dim must be a nonnegative integer, got True"),
    (["ope", "--module", '{"type":"fermion"}', "--field-a",
      '{"gen":"psi","color":5}', "--field-b", '{"gen":"psi"}'],
     "FockModule has no psi color 5: its colors are 0 to 0"),
    (["brackets", "--module", '{"type":"ns_verma","c":"7/10","h":"1/10"}',
      "--field-a", '{"gen":"G","color":3}', "--field-b", '{"gen":"L"}',
      "--depth", "1"], "VermaModule has no G color 3: its colors are 0 to 0"),
    (["ope", "--module", '{"type":"affine","algebra":"sl2","level":1}',
      "--field-a", '{"gen":"x","color":7}', "--field-b", '{"gen":"x"}'],
     "FockModule has no x color 7: its colors are 0 to 2"),
    (["brackets", "--module",
      '{"type":"affine","algebra":"sl2","level":1,"spin":"1/2"}',
      "--field-a", '{"gen":"x","color":-1}', "--field-b", '{"gen":"x"}',
      "--depth", "1"], "FockModule has no x color -1: its colors are 0 to 2"),
    (["ope", "--module", '{"type":"tensor","factors":[{"type":"affine",'
      '"level":1},{"type":"fermion","colors":3}]}', "--field-a",
      '{"gen":"psi","color":3}', "--field-b", '{"gen":"x","color":2}'],
     "FockModule has no psi color 3: its colors are 0 to 2"),
    (["gram", "--module", '{"type":"affine","level":1.5}', "--level", "1"],
     "level must be an integer, got 1.5"),
    (["gram", "--module", '{"type":"tensor","factors":[{"type":"affine",'
      '"level":2.9},{"type":"fermion"}]}', "--level", "1"],
     "level must be an integer, got 2.9"),
    (["gram", "--module", '{"type":"affine","level":true}', "--level", "1"],
     "level must be an integer, got True"),
    (["gram", "--module", '{"type":"fermion","colors":2.7}', "--level", "1"],
     "colors must be an integer, got 2.7"),
    (["gram", "--module", '{"type":"fermion","colors":true}', "--level", "1"],
     "colors must be an integer, got True"),
    (["gram", "--module", '{"type":"affine","level":1,"spin":true}',
      "--level", "1"], "spin must be a half-integer, got True"),
    (["gram", "--module", '{"type":"affine","level":1,"spin":"1/3"}',
      "--level", "1"], "spin must be a half-integer, got '1/3'"),
    (["gram", "--module", '{"type":"fermion"}', "--level", "1/3"],
     "level must be a half-integer, got '1/3'"),
    (["nullvec", "--module", '{"type":"fermion"}', "--level", "x"],
     "level must be a half-integer, got 'x'"),
    (["ghosts", "--c", "1/2", "--h", "0", "--depth", "1/3"],
     "depth must be a half-integer, got '1/3'"),
    (["module", "--algebra", "sl2", "--level", "1", "--spin", "1/4"],
     "spin must be a half-integer, got '1/4'"),
    (["module", "--algebra", "sl2", "--level", "1", "--spin", "-1/2"],
     "negative spin"),
    (["cocycle", "--smax", "1/3"], "smax must be a half-integer, got '1/3'"),
    (["gram", "--module", '{"type":"ns_verma","c":[1],"h":0}', "--level",
      "1"], "a scalar term is an object with integer num, den and rad, not 1"),
    (["ope", "--module", '{"type":"fermion"}', "--field-a",
      '{"lincomb":[[[2],{"gen":"psi"}]]}', "--field-b", '{"gen":"psi"}'],
     "a scalar term is an object with integer num, den and rad, not 2"),
    (["validate", "--algebra", '{"name":"x","dim":3,"gamma":'
      '[{"a":1,"b":2,"c":3,"val":[{"num":1,"rad":true}]}]}'],
     "scalar term rad must be an integer, got True"),
    (["validate", "--algebra", '{"name":"x","dim":3,"gamma":'
      '[{"a":1,"b":2,"c":3,"val":[{"num":true}]}]}'],
     "scalar term num must be an integer, got True"),
    (["validate", "--algebra", '{"name":"x","dim":3,"gamma":'
      '[{"a":1,"b":2,"c":3,"val":[{"num":1,"rad":0}]}]}'],
     "radicand 0 is not allowed"),
    (["ope", "--module", '{"type":"fermion"}', "--field-a",
      '{"gen":"psi","color":0.9}', "--field-b", '{"gen":"psi"}'],
     "color must be an integer, got 0.9"),
    (["ope", "--module", '{"type":"fermion"}', "--field-a",
      '{"nprod":[{"gen":"psi"},{"gen":"psi"},1.5]}', "--field-b",
      '{"gen":"psi"}'], "product order must be an integer, got 1.5"),
    (["validate", "--algebra", '{"name":"x","dim":3,"gamma":'
      '[{"a":1.5,"b":2,"c":3,"val":1}]}'],
     "gamma index a must be an integer, got 1.5"),
    (["validate", "--algebra", '{"name":"x","dim":3,"gamma":'
      '[{"a":true,"b":2,"c":3,"val":1}]}'],
     "gamma index a must be an integer, got True"),
    (["validate", "--algebra", "{}"], "algebra has no 'name' key"),
    (["validate", "--algebra", '{"name":"x","gamma":[]}'],
     "algebra has no 'dim' key"),
    (["validate", "--algebra", "[1,2]"],
     "algebra must be an object, got [1, 2]"),
    (["validate", "--algebra", '{"name":"x","dim":3,"gamma":5}'],
     "gamma must be a list, got 5"),
    (["validate", "--algebra", '{"name":"x","dim":3,"gamma":[7]}'],
     "gamma entry must be an object, got 7"),
    (["validate", "--algebra", '{"name":"x","dim":3,"gamma":'
      '[{"a":1,"b":2,"c":3}]}'], "gamma entry has no 'val' key"),
    (["validate", "--algebra", '{"name":"x","dim":3,"gamma":'
      '[{"a":1,"b":2,"c":3,"val":[{"rad":2}]}]}'],
     "scalar term has no 'num' key"),
    (["gram", "--module", '{"type":"ns_verma","h":"0"}', "--level", "1"],
     "ns_verma descriptor has no 'c' key"),
    (["gram", "--module", '{"type":"affine"}', "--level", "1"],
     "affine descriptor has no 'level' key"),
    (["gram", "--module", '{"type":"tensor","factors":3}', "--level", "1"],
     "tensor factors must be a list, got 3"),
    (["ope", "--module", '{"type":"fermion"}', "--field-a",
      '{"nprod":[{"gen":"psi"}]}', "--field-b", '{"gen":"psi"}'],
     "nprod must be a list of 3 items, got [{'gen': 'psi'}]"),
    (["ope", "--module", '{"type":"fermion"}', "--field-a",
      '{"lincomb":[[1]]}', "--field-b", '{"gen":"psi"}'],
     "lincomb term must be a list of 2 items, got [1]"),
    (["ghosts", "--c", "1/0", "--h", "0"], "c must be a fraction, got '1/0'"),
    (["cocycle", "--c", "1/0"], "c must be a fraction, got '1/0'"),
    (["gram", "--module", '{"type":"ns_verma","c":"1/0","h":0}', "--level",
      "1"], "a scalar needs nonzero denominators, got '1/0'"),
    (["gram", "--module", '{"type":"ns_verma","c":[{"num":1,"den":0}],'
      '"h":0}', "--level", "1"],
     "a scalar needs nonzero denominators, got [{'num': 1, 'den': 0}]"),
    (["gram", "--module", '{"type":"ns_verma","c":"x","h":0}', "--level",
      "1"], "a scalar is a term list, an integer or a fraction string, "
     "not 'x'"),
    (["ghosts", "--c", "1/2", "--h", "x"], "h must be a fraction, got 'x'"),
    (["gram", "--module", '{"type":"fermion"}', "--level", "-1/2"],
     "level must be nonnegative, got '-1/2'"),
    (["nullvec", "--module", '{"type":"fermion"}', "--level", "-1/2"],
     "level must be nonnegative, got '-1/2'"),
    (["module", "--algebra", "sl2", "--level", "-1"],
     "level must be nonnegative, got -1"),
    (["axioms", "--construction", "g-fermion", "--algebra",
      '{"name":"u1","dim":1,"gamma":[]}'],
     "every internal current S^a of u1 vanishes"),
])
def test_malformed_inputs_name_their_fault(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")


def _not_local(*args, **kwargs):
    # the verdict of locality_order on a pair that is not local
    raise NotLocalError("fields not local at order <= 1 on this window")


@pytest.mark.parametrize("command", [["sugawara"],
                                     ["axioms", "--construction", "sugawara"]])
def test_sugawara_reports_a_nonlocal_pair(capsys, monkeypatch, command):
    monkeypatch.setattr(fields, "locality_order", _not_local)
    code, report, _ = run_json(capsys, command + [
        "--algebra", "sl2", "--level", "1", "--depth", "1/2"])
    assert code == 1
    checks = report["axioms" if command == ["sugawara"] else "checks"]
    assert checks["locality"] is False


def test_ope_of_a_nonlocal_pair_exits_one_with_its_report(capsys,
                                                          monkeypatch):
    monkeypatch.setattr(cli, "locality_order", _not_local)
    code, report, err = run_json(capsys, [
        "ope", "--module", '{"type":"fermion","colors":1}',
        "--field-a", '{"gen":"psi"}', "--field-b", '{"gen":"psi"}'])
    assert code == 1
    assert report == {"local": False,
                      "error": "fields not local at order <= 1 on this window"}
    assert err.startswith("not local: ")


# psi_(-5)psi has weight 5, so its locality order with itself may reach
# the weight bound 10
HEAVY = '{"nprod":[{"gen":"psi"},{"gen":"psi"},-5]}'


@pytest.mark.parametrize("command", ["ope", "brackets"])
def test_a_heavy_pair_is_local_at_its_weight_bound(capsys, command):
    code, report, _ = run_json(capsys, [
        command, "--module", '{"type":"fermion","colors":1}',
        "--field-a", HEAVY, "--field-b", HEAVY, "--depth", "1/2",
        "--window", "1"])
    assert code == 0
    assert report["order"] == 10
    assert report["bracket"] == "commutator"
    if command == "brackets":
        assert report["valid"] is True and report["checked"] == 18


def test_float_or_bool_scalar_in_module_exits_two(capsys):
    for c in ("1.5", "true"):
        code, out, err = run(capsys, [
            "gram", "--module", '{"type":"ns_verma","c":%s,"h":0}' % c,
            "--level", "1"])
        assert code == 2, c
        assert out == ""
        assert "a term list, an integer or a fraction string" in err


OPTIONS = {
    "validate": ["--format", "--algebra"],
    "catalog": ["--format"],
    "gram": ["--format", "--module", "--level"],
    "nullvec": ["--format", "--module", "--level"],
    "ghosts": ["--format", "--depth", "--sector", "--c", "--h"],
    "ope": ["--format", "--depth", "--window", "--module", "--field-a",
            "--field-b"],
    "brackets": ["--format", "--depth", "--window", "--module", "--field-a",
                 "--field-b"],
    "sugawara": ["--format", "--depth", "--window", "--algebra", "--level"],
    "susy-check": ["--format", "--depth", "--window", "--algebra",
                   "--level"],
    "module": ["--format", "--depth", "--algebra", "--level", "--spin"],
    "cocycle": ["--format", "--nmax", "--smax", "--c"],
    "axioms": ["--format", "--depth", "--window", "--construction",
               "--colors", "--algebra", "--level", "--seed"],
}


def _subparsers():
    from nsvertex.cli import _parser
    action, = [a for a in _parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_every_subcommand_is_pinned():
    assert list(_subparsers()) == list(OPTIONS)
    assert sum(map(len, OPTIONS.values())) == 53


@pytest.mark.parametrize("command", OPTIONS)
def test_subcommand_takes_only_the_options_it_reads(command):
    options = [a.option_strings[-1] for a in _subparsers()[command]._actions
               if a.dest != "help"]
    assert options == OPTIONS[command]


def _readme_option_table():
    """README's option table as {command: options}, and the text above
    it."""
    import re
    from pathlib import Path
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    head, table = text.split("| command | options |\n| --- | --- |\n", 1)
    rows = {}
    for line in table.splitlines():
        if not line.startswith("| "):
            break
        commands, options = line.strip("| ").split(" | ")
        for command in re.findall(r"`([a-z-]+)`", commands):
            assert command not in rows, command
            rows[command] = re.findall(r"`(--[a-z-]+)`", options)
    return head, rows


def test_readme_option_table_matches_the_parser():
    head, rows = _readme_option_table()
    # --format is stated once, above the table, for every subcommand
    assert head.count("`--format json|text`") == 1
    assert list(rows) == list(_subparsers())
    for command, listed in rows.items():
        options = [a.option_strings[-1]
                   for a in _subparsers()[command]._actions
                   if a.dest not in ("help", "format")]
        assert len(set(listed)) == len(listed), command
        assert sorted(listed) == sorted(options), command


# the required options of each subcommand
MINIMAL = {
    "validate": ["--algebra", "sl2"],
    "catalog": [],
    "gram": ["--module", "{}", "--level", "1"],
    "nullvec": ["--module", "{}", "--level", "1"],
    "ghosts": ["--c", "1/2", "--h", "0"],
    "ope": ["--module", "{}", "--field-a", "{}", "--field-b", "{}"],
    "brackets": ["--module", "{}", "--field-a", "{}", "--field-b", "{}"],
    "sugawara": ["--algebra", "sl2", "--level", "1"],
    "susy-check": ["--algebra", "sl2", "--level", "1"],
    "module": ["--algebra", "sl2", "--level", "1"],
    "cocycle": [],
    "axioms": ["--construction", "fermion"],
}


# options that subcommands took without reading them, and --max-order,
# which none takes: the fields' weights bound the locality search
@pytest.mark.parametrize("command, flag", [
    *((command, "--seed") for command in MINIMAL if command != "axioms"),
    ("ghosts", "--window"), ("module", "--window"), ("ghosts", "--max-order"),
    ("module", "--max-order"), ("susy-check", "--max-order"),
    *((command, "--max-order")
      for command in ("ope", "brackets", "sugawara", "axioms"))])
def test_an_option_the_handler_does_not_read_is_refused(capsys, command,
                                                        flag):
    with pytest.raises(SystemExit) as exc:
        main([command] + MINIMAL[command] + [flag, "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # the usage is the subcommand's, which lists what it does take
    assert err.startswith(f"usage: nsvertex {command} ")
    assert f"unrecognized arguments: {flag} 3" in err


# the options of axioms that a construction does not read, refused before
# any work, even at their defaults
@pytest.mark.parametrize("argv, option", [
    (["fermion", "--algebra", "{broken"], "--algebra"),
    (["g-fermion", "--level", "-5", "--colors", "9"], "--colors"),
    (["fermion", "--algebra", "sl2"], "--algebra"),
    (["fermion", "--level", "1"], "--level"),
    (["g-fermion", "--level", "1"], "--level"),
    (["sugawara", "--colors", "1"], "--colors"),
    (["super", "--colors", "1"], "--colors")])
def test_axioms_refuses_what_the_construction_does_not_read(capsys, argv,
                                                            option):
    code, out, err = run(capsys, ["axioms", "--depth", "1/2",
                                  "--construction"] + argv)
    assert code == 2 and out == ""
    assert err == (f"error: {option} is not read by the {argv[0]} "
                   "construction\n")


def test_axioms_reads_colors_on_the_fermion_construction(capsys):
    code, report, _ = run_json(capsys, [
        "axioms", "--construction", "fermion", "--colors", "2",
        "--depth", "1/2"])
    assert code == 0 and report["valid"] is True
    code, out, err = run(capsys, ["axioms", "--construction", "fermion",
                                  "--colors", "0", "--depth", "1/2"])
    assert code == 2 and out == ""
    assert err == "error: need at least one fermion\n"


def test_calls_in_one_process_answer_as_each_does_alone(capsys):
    from nsvertex.cli import _parser
    calls = [["ghosts", "--c", "1/2", "--h", "0", "--depth", "3/2"],
             ["gram", "--module", '{"type":"fermion"}', "--level", "1",
              "--format", "text"]]
    alone = []
    for argv in calls:
        _parser.cache_clear()
        alone.append(run(capsys, argv)[:2])
    _parser.cache_clear()
    assert [run(capsys, argv)[:2] for argv in calls] == alone
    assert [code for code, _ in alone] == [0, 0] and all(
        out for _, out in alone)
    # a refused option after a valid call still names its subcommand
    with pytest.raises(SystemExit) as exc:
        main(["ghosts", "--c", "1/2", "--h", "0", "--seed", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: nsvertex ghosts ")


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nosuch"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_environment_does_not_move_the_default_depth(capsys, monkeypatch):
    # the default is the constant 2, whatever the environment holds
    argv = ["ghosts", "--c", "1/2", "--h", "0"]
    first = run(capsys, argv)
    monkeypatch.setenv("NSVERTEX_DEPTH", "1")
    assert run(capsys, argv) == first
    code, out, _ = first
    assert code == 0
    assert len(json.loads(out)["levels"]) == 5


def test_text_format_renders_symbolically(capsys):
    code, out, err = run(capsys, [
        "gram", "--module", '{"type":"fermion","colors":1}', "--level", "0",
        "--format", "text"])
    assert code == 0
    assert "[ 1 ]" in out
    code, out, _ = run(capsys, [
        "susy-check", "--algebra", "sl2", "--level", "1", "--depth", "1",
        "--format", "text"])
    assert code == 0
    assert "5/2" in out
    # a vector is a dict, but prints on one line
    code, out, _ = run(capsys, [
        "ope", "--module", '{"type":"ns_verma","c":"7/10","h":"0"}',
        "--field-a", '{"gen":"L"}', "--field-b", '{"gen":"L"}',
        "--depth", "2", "--format", "text"])
    assert code == 0
    assert out.splitlines()[-5:] == [
        "singular:", "  0: (1)·L(-3) Ω", "  1: (2)·L(-2) Ω", "  2: 0",
        "  3: (7/20)·Ω"]
    code, out, _ = run(capsys, [
        "nullvec", "--module",
        '{"type":"virasoro_verma","c":"1/2","h":"1/16"}', "--level", "2",
        "--format", "text"])
    assert code == 0
    assert out.splitlines() == [
        "level: 2", "dim: 2", "null_count: 1",
        "vectors: [(-3/4)·L(-2) Ω + (1)·L(-1) L(-1) Ω]"]
