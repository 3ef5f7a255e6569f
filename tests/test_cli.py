"""End-to-end runs of the command line, in process."""

import json

import pytest

from treesubst import cli, rauzy, trees
from treesubst.trees import family_tree_substitution


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_gen_json_stdout(capsys):
    rc = cli.main(["gen", "--d", "3", "--n", "2", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stage"] == 2
    assert payload["d"] == 3
    assert len(payload["edges"]) == 7


def test_gen_dot_file(tmp_path, capsys):
    out = tmp_path / "t.dot"
    rc = cli.main(["gen", "--n", "1", "--format", "dot", "--out", str(out)])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    assert out.read_text().startswith("digraph")


def test_gen_csv_realized(tmp_path):
    out = tmp_path / "t.csv"
    rc = cli.main(["gen", "--n", "3", "--format", "csv", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "vertex,birth_stage,degree,norm,address"
    assert len(lines) == 1 + 12   # stage-3 tree: 11 edges, 12 vertices
    root = lines[1].split(",")
    assert root[0] == "0" and float(root[3]) == 0.0


def test_gen_rejects_small_d(capsys):
    rc = cli.main(["gen", "--d", "2"])
    assert rc == 2
    assert "at least 3" in capsys.readouterr().err


def test_verify_trees_table(capsys):
    rc = cli.main(["verify", "--suite", "trees", "--d", "3", "--max-stage", "6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "suite trees: pass" in out
    assert "trunk-determinism" in out


def test_verify_json_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = cli.main([
        "verify", "--suite", "realization", "--max-stage", "5",
        "--format", "json", "--out", str(out),
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["report_version"] == 1
    assert report["suite"] == "realization"
    assert report["status"] == "pass"
    assert all(c["status"] == "pass" for c in report["checks"])
    names = {c["name"] for c in report["checks"]}
    assert "stage-convergence" in names


def _dump_rules(ts, path):
    payload = {
        "d": ts.d,
        "rules": {
            str(color): [list(edge) for edge in rule.edges]
            for color, rule in ts.rules.items()
        },
    }
    path.write_text(json.dumps(payload))


def test_verify_rules_roundtrip(tmp_path, capsys):
    path = tmp_path / "rules.json"
    _dump_rules(family_tree_substitution(3), path)
    rc = cli.main(["verify", "--rules", str(path)])
    assert rc == 0
    assert "rule-iteration" in capsys.readouterr().out


def test_verify_rules_corrupted(tmp_path, capsys):
    ts = family_tree_substitution(3)
    path = tmp_path / "bad.json"
    payload = {
        "d": 3,
        "rules": {
            str(color): [list(edge) for edge in rule.edges]
            for color, rule in ts.rules.items()
        },
    }
    payload["rules"]["1"] = [["X", "Z", 3]]   # drops the second anchor
    path.write_text(json.dumps(payload))
    rc = cli.main(["verify", "--rules", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "condition 1" in err
    assert "rule set rejected" in err


def test_plot_rauzy_svg(tmp_path, capsys):
    out = tmp_path / "r.svg"
    rc = cli.main([
        "plot", "--kind", "rauzy", "--depth", "300",
        "--color", "cylinder:2", "--out", str(out),
    ])
    assert rc == 0
    assert "301 points" in capsys.readouterr().out
    assert out.read_text().startswith("<?xml")


def test_plot_zeta_csv(tmp_path):
    out = tmp_path / "z.csv"
    rc = cli.main([
        "plot", "--kind", "zeta", "--n", "2", "--depth", "500",
        "--format", "csv", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,tag"
    assert len(lines) > 100


def test_plot_refuses_other_d(capsys):
    rc = cli.main(["plot", "--d", "4", "--depth", "100"])
    assert rc == 2
    assert "requires d=3" in capsys.readouterr().err


def test_bad_coloring_is_usage_error(capsys):
    rc = cli.main(["plot", "--depth", "100", "--color", "nope:1"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_seed_env_is_ignored(monkeypatch, capsys):
    rc = cli.main(["gen", "--n", "1"])
    assert rc == 0
    base = capsys.readouterr().out
    monkeypatch.setenv("ARBRE_SUBST_SEED", "12345")
    rc = cli.main(["gen", "--n", "1"])
    assert rc == 0
    assert capsys.readouterr().out == base


@pytest.mark.parametrize(
    "content",
    [None, '{"d": 3}', "[1, 2]", '{"d": 3, "rules": []}', '{"d": 3, "rules": {"1": [7]}}',
     '{"d": 3, "rules": {"1": [["X", "Y", [1]]]}}', '{"d": "x", "rules": {}}'],
    ids=["missing-file", "no-rules-key", "not-an-object", "rules-not-an-object",
         "edge-not-a-list", "color-not-an-int", "d-not-an-int"],
)
def test_verify_rules_unusable_file_is_usage_error(tmp_path, capsys, content):
    path = tmp_path / "rules.json"
    if content is not None:
        path.write_text(content)
    rc = cli.main(["verify", "--rules", str(path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--n", "-1"],
        ["verify", "--suite", "realization", "--max-stage", "-1"],
        ["verify", "--suite", "core", "--max-stage", "-1"],
        ["verify", "--suite", "words", "--prefix-len", "0"],
        ["verify", "--suite", "words", "--tol", "-1"],
        ["verify", "--suite", "words", "--tol", "nan"],
        ["verify", "--suite", "words", "--tol", "inf"],
        ["plot", "--depth", "-1"],
        ["plot", "--kind", "zeta", "--n", "-1"],
        ["plot", "--color", "arc:-1"],
        ["plot", "--color", "cylinder:0"],
    ],
    ids=["gen-negative-stage", "realization-negative-stage", "core-negative-stage",
         "zero-prefix-len", "negative-tol", "nan-tol", "infinite-tol",
         "plot-negative-depth", "zeta-negative-stage",
         "arc-negative-stage", "cylinder-zero-length"],
)
def test_out_of_range_argument_is_usage_error(tmp_path, capsys, argv):
    rc = cli.main(argv + ["--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["gen"], ["verify", "--suite", "trees"], ["plot", "--depth", "100"]],
    ids=["gen", "verify", "plot"],
)
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv):
    rc = cli.main(argv + ["--out", str(tmp_path / "missing" / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_stage_convergence_without_a_stage_fails(capsys):
    # the first gap is between stages 0 and 1, so n<=0 compares nothing
    rc = cli.main([
        "verify", "--suite", "realization", "--d", "3", "--max-stage", "0",
        "--format", "json",
    ])
    assert rc == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["stage-convergence"]["status"] == "fail"
    assert checks["stage-convergence"]["witnesses"] == ["no stage to compare at n<=0"]
    assert checks["edge-length-law"]["status"] == "pass"


def test_path_distances_without_a_pair_fails(capsys):
    # the stage-0 star has one branch point, so there is no pair to compare,
    # and each letter's shift domain holds at most that one
    rc = cli.main(["verify", "--suite", "core", "--max-stage", "0", "--format", "json"])
    assert rc == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["path-distances"]["witnesses"] == ["no branch-point pair to compare at n<=0"]
    assert checks["shift-isometries"]["witnesses"] == ["no shift-domain pair to compare at n<=0"]
    assert [n for n, c in checks.items() if c["status"] == "fail"] == [
        "shift-isometries", "path-distances",
    ]


def test_gen_past_the_edge_budget_is_usage_error(capsys):
    # stage 40 would hold about 13.1M edges; the guard refuses it unbuilt
    assert cli.main(["gen", "--n", "40"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stage 40 would hold about 13,103,838 edges")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, stage",
    [
        (["gen", "--n", "12"], 12),
        (["verify", "--suite", "trees", "--max-stage", "11"], 12),   # the audit reads n + 1
        (["plot", "--kind", "zeta", "--n", "2", "--depth", "3000"], 20),
        (["plot", "--color", "arc:4", "--depth", "3000"], 20),
    ],
    ids=["gen", "verify", "plot-zeta", "plot-arc"],
)
def test_requests_over_a_small_budget_are_refused(monkeypatch, tmp_path, capsys, argv, stage):
    monkeypatch.setattr(trees, "EDGE_BUDGET", 250)   # 3 * lambda^n is 201 at n = 11, 295 at 12
    rauzy._orbit_index.cache_clear()   # a cached walk would skip the guard
    rc = cli.main(argv + ["--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: stage {stage} would hold about ")
    assert err.rstrip().endswith("over the budget of 250")
    rauzy._orbit_index.cache_clear()


def test_requests_within_a_small_budget_run(monkeypatch, tmp_path):
    monkeypatch.setattr(trees, "EDGE_BUDGET", 250)
    assert cli.main(["gen", "--n", "11", "--out", str(tmp_path / "t.json")]) == 0
    assert cli.main(["plot", "--kind", "zeta", "--n", "2", "--depth", "40",
                     "--out", str(tmp_path / "z.svg")]) == 0
