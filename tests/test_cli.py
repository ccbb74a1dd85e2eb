import argparse
import json

import pytest
from nonregular_reference import whole_grid_membership

from cobordseries.cli import build_parser, main


def run_json(tmp_path, args):
    out = tmp_path / "report.json"
    code = main(args + ["--out", str(out)])
    with open(out) as fh:
        return code, json.load(fh)


def test_series_subcommand(tmp_path):
    code, report = run_json(tmp_path, ["series", "--count", "5"])
    assert code == 0
    assert report["pass"] is True
    assert report["command"] == "series"
    assert report["params"]["seed"] == 0
    assert len(report["cases"]) == 5
    assert set(report) >= {"command", "params", "cases", "max_residual", "pass"}


def test_series_interval_groupoid(tmp_path):
    code, report = run_json(
        tmp_path, ["series", "--count", "3", "--groupoid", "interval:0..4"])
    assert code == 0 and report["pass"]


def test_series_deterministic_given_seed(tmp_path):
    _, first = run_json(tmp_path, ["series", "--count", "4", "--seed", "9"])
    _, second = run_json(tmp_path, ["series", "--count", "4", "--seed", "9"])
    assert first == second


def test_expmap_subcommand(tmp_path):
    code, report = run_json(tmp_path, ["expmap", "--grade", "3"])
    assert code == 0
    assert report["pass"] is True
    for case in report["cases"]:
        assert 1.7 <= case["ratio"] <= 2.3


def test_expmap_csv(tmp_path):
    out = tmp_path / "table.csv"
    code = main(["expmap", "--grade", "2", "--n", "8,16",
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,grade,error"
    assert len(lines) > 1


def test_markov_subcommand(tmp_path):
    code, report = run_json(tmp_path, ["cosurface", "markov-check",
                                       "--group", "Z3"])
    assert code == 0
    assert report["pass"] is True
    assert {case["name"] for case in report["cases"]} == \
        {"chain-3", "chain-4", "two-plaquette-strip"}
    assert report["max_residual"] <= 1e-12


def test_cut_paste_subcommand(tmp_path):
    code, report = run_json(tmp_path, ["cosurface", "cut-paste",
                                       "--group", "Z2"])
    assert code == 0
    assert report["pass"] is True


def test_cosurface_series_subcommand(tmp_path):
    code, report = run_json(tmp_path, ["cosurface", "series"])
    assert code == 0
    assert report["pass"] is True
    assert report["params"]["groupoid"] == "interval:0..5"


def test_nonregular_subcommand(tmp_path):
    code, report = run_json(tmp_path, ["nonregular", "--grid", "20000",
                                       "--t", "0.5,-0.5"])
    assert code == 0
    assert report["pass"] is True
    assert all(case["escape"] for case in report["cases"])
    # the membership floats, through JSON, are the whole-grid oracle's
    for case, t in zip(report["cases"], (0.5, -0.5), strict=True):
        whole = whole_grid_membership(t, 20_000)
        assert case["name"] == f"t={t}"
        assert case["min_bound_slack"] == min(whole["lower_slack"], whole["upper_slack"])
        # both slacks are positive and the closed-form time derivative is exactly 1
        assert case["residual"] == whole["fd_cross_check"]


def test_table_file_group(tmp_path):
    from cobordseries.groups import symmetric3

    s3 = symmetric3()
    table = tmp_path / "s3.json"
    table.write_text(json.dumps({"order": s3.order, "labels": list(s3.labels),
                                 "table": [list(row) for row in s3.table]}))
    code, report = run_json(tmp_path, ["cosurface", "markov-check",
                                       "--table-file", str(table)])
    assert code == 0 and report["pass"]


def test_relabelled_s3_table_file_runs_like_the_builtin(tmp_path):
    from lattice_instances import relabel
    from cobordseries.groups import symmetric3

    s3 = relabel(symmetric3(), (0, 4, 1, 5, 2, 3), "S3")
    table = tmp_path / "relabelled.json"
    table.write_text(json.dumps({"name": s3.name, "order": s3.order,
                                 "labels": list(s3.labels),
                                 "table": [list(row) for row in s3.table]}))
    for source in (["--table-file", str(table)], ["--group", "S3"]):
        code, report = run_json(tmp_path, ["cosurface", "markov-check"] + source)
        assert code == 0 and report["pass"]


def test_empty_invocation_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code != 0


def test_option_a_subcommand_does_not_read_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonregular", "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--grid", "0"), ("--grid", "-4"),
                                         ("--t", "nan"), ("--t", "1.5")])
def test_nonregular_out_of_range_value_is_usage_error(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["nonregular", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["series", "--count", "0"], ["series", "--count", "-3"],
    ["series", "--trunc", "-1"], ["series", "--trunc", "0"],
    ["cosurface", "series", "--trunc", "-1"],
    ["expmap", "--grade", "0"], ["expmap", "--n", "0,0"], ["expmap", "--n", "0"],
    ["expmap", "--n", "8"], ["expmap", "--n", "8,12,24x"],
    ["cosurface", "cut-paste", "--tol", "-0.001"],
    ["cosurface", "markov-check", "--tol", "nan"],
    ["cosurface", "series", "--tol", "inf"],
], ids=" ".join)
def test_out_of_range_value_is_usage_error(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert f"argument {args[-2]}" in capsys.readouterr().err


def test_expmap_runs_only_the_doubling_pairs(tmp_path):
    code, report = run_json(tmp_path, ["expmap", "--grade", "2", "--n", "8,12,16"])
    assert code == 0 and report["pass"]
    assert {case["name"].rsplit("-n", 1)[1] for case in report["cases"]} == {"8"}


def leaf_parsers(parser):
    """The parsers under ``parser`` that take no further subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [parser]
    return [leaf for sub in subs for child in sub.choices.values()
            for leaf in leaf_parsers(child)]


def test_every_subcommand_sets_its_runner_and_report_command():
    leaves = leaf_parsers(build_parser())
    assert all(callable(leaf.get_default("run")) for leaf in leaves)
    assert sorted(leaf.get_default("command") for leaf in leaves) == sorted([
        "series", "expmap", "cosurface markov-check", "cosurface cut-paste",
        "cosurface series", "nonregular"])


def test_report_without_cases_fails(tmp_path, monkeypatch):
    from cobordseries import cli

    monkeypatch.setattr(cli, "run_series", lambda args: ({}, []))
    code, report = run_json(tmp_path, ["series"])
    assert code == 1
    assert report["cases"] == [] and report["pass"] is False


def test_unknown_groupoid_spec_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["series", "--groupoid", "torus:2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("args, message", [
    (["cosurface", "markov-check", "--group", "foo"], "unknown group 'foo'"),
    (["cosurface", "cut-paste", "--group", "Z13"], "Z2..Z12"),
    (["cosurface", "series", "--groupoid", "torus:2"], "unknown groupoid spec"),
    (["series", "--groupoid", "interval:3"], "argument --groupoid"),
], ids=["unknown-group", "cyclic-out-of-range", "cosurface-groupoid", "interval-no-span"])
def test_unknown_name_or_spec_is_usage_error(capsys, args, message):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {args[-2]}" in err and message in err


def test_missing_table_file_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cosurface", "markov-check", "--table-file", str(tmp_path / "missing.json")])
    assert exc.value.code == 2
    assert "argument --table-file" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "{not json", "5", '{"order": 2, "labels": "eg", "table": [[0, 1], [1, 0]]}',
    '{"order": 2, "labels": ["e", "g"], "table": 5}',
    '{"order": 2, "labels": ["e", "g"], "table": [[0, 1], [1, 1]]}',
], ids=["not-json", "not-an-object", "string-labels", "int-table", "not-a-group"])
def test_invalid_table_file_is_usage_error(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["cosurface", "cut-paste", "--table-file", str(path)])
    assert exc.value.code == 2
    assert "argument --table-file" in capsys.readouterr().err


def test_expmap_grade_one_keeps_only_grade_one_components(tmp_path):
    code, report = run_json(tmp_path, ["expmap", "--grade", "1"])
    assert code == 0 and report["pass"]
    assert report["cases"] and all(case["name"].split("-grade")[1].startswith("1-")
                                   for case in report["cases"])
    assert all(1.7 <= case["ratio"] <= 2.3 for case in report["cases"])


@pytest.mark.parametrize("band", [["2.3", "1.7"], ["nan", "inf"], ["1.7", "inf"]],
                         ids=" ".join)
def test_expmap_non_finite_or_inverted_ratio_band_is_usage_error(capsys, band):
    with pytest.raises(SystemExit) as exc:
        main(["expmap", "--ratio-band", *band])
    assert exc.value.code == 2
    assert "argument --ratio-band" in capsys.readouterr().err
