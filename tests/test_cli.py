"""End-to-end runs of the command line, in process."""

import hashlib
import json
import time
from pathlib import Path

import pytest

from treesubst import cli, core, rauzy, trees, verify
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


def test_verify_rules_names_five_missing_colors_of_a_huge_d(tmp_path, capsys):
    # about 2e9 colors lack a rule: five are named and the rest counted, with
    # work in the size of the file, not of d
    path = tmp_path / "huge.json"
    path.write_text('{"d": 1000000000, "rules": {"1": [["X","Y",3]]}}')
    assert cli.main(["verify", "--rules", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 1024
    assert "condition 1: no pattern for colors [2, 3, 4, 5, 6] and 1999999992 more\n" in err


def test_verify_rules_refuses_stray_rule_keys(tmp_path, capsys):
    path = tmp_path / "stray.json"
    _dump_rules(family_tree_substitution(3), path)
    payload = json.loads(path.read_text())
    payload["rules"].update({"0": [["X", "Y", 1]], "9": [["X", "Y", 1]]})
    path.write_text(json.dumps(payload))
    assert cli.main(["verify", "--rules", str(path)]) == 2
    err = capsys.readouterr().err
    assert "condition 1: patterns for colors 0, 9 outside 1..4\n" in err
    assert "rule set rejected" in err


def test_verify_rules_names_a_key_that_is_not_an_integer(tmp_path, capsys):
    path = tmp_path / "named.json"
    path.write_text('{"d": 3, "rules": {"one": [["X", "Y", 3]]}}')
    assert cli.main(["verify", "--rules", str(path)]) == 2
    assert f"rules file {path}: rule key 'one' is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("color", [10**30, -(2**31) - 1, 2**31, True],
                         ids=["huge", "below-int32", "past-int32", "boolean"])
def test_verify_rules_refuses_a_color_outside_int32_naming_the_rule(tmp_path, capsys, color):
    # 10^30 used to end in an OverflowError, and true was read as color 1
    path = tmp_path / "color.json"
    _dump_rules(family_tree_substitution(3), path)
    payload = json.loads(path.read_text())
    payload["rules"]["2"][0][2] = color
    path.write_text(json.dumps(payload))
    assert cli.main(["verify", "--suite", "trees", "--d", "3", "--rules", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"error: rules file {path}: rule 2 must be a list of [src, dst, color] edges" in err
    assert "Traceback" not in err


def test_verify_rules_refuses_a_file_nested_too_deeply(tmp_path, capsys):
    # 100,000 nested arrays used to end in a RecursionError from json
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert cli.main(["verify", "--suite", "trees", "--d", "3", "--rules", str(path)]) == 2
    assert f"error: cannot read rules file {path}: nested too deeply" in capsys.readouterr().err


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
    # --tol and --prefix-len are gone, so argparse refuses them as unknown flags
    try:
        rc = cli.main(argv + ["--out", str(tmp_path / "out")])
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert ("unrecognized arguments" in err) == ("--tol" in argv or "--prefix-len" in argv)


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


def test_words_suite_runs_past_d_15(capsys):
    # the development depth grows with d; measure-snapping may still fail
    rc = cli.main(["verify", "--suite", "words", "--d", "16", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert rc in (0, 1)
    assert {c["name"]: c["status"] for c in report["checks"]}["development-tails"] == "pass"


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


def test_gen_refuses_a_large_d_before_building(capsys):
    # the budget's Newton step overflows from d = 1751; the stage-0 star of
    # d = 100000 took minutes to build before the budget was read
    start = time.perf_counter()
    assert cli.main(["gen", "--d", "100000", "--n", "0"]) == 2
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert err.startswith("error: Newton for x^100000") and "Traceback" not in err


def test_verify_rules_refuses_an_iterate_over_the_budget(tmp_path, capsys):
    # four stars of 250 edges, all of color 2: iterates of 250, 62,500 and
    # 15,625,000 edges, the last refused before it is built
    star = [["P1", "X", 2], ["P1", "Y", 2]] + [["P1", f"P{k}", 2] for k in range(2, 250)]
    assert 4 * len(star) == 1000
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"d": 3, "rules": {str(c): star for c in range(1, 5)}}))
    assert cli.main(["verify", "--rules", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: iterate 3 would hold 15,625,000 edges, "
                          "over the budget of 1,000,000") and "Traceback" not in err


@pytest.mark.parametrize("suite, d", [
    ("words", 3000), ("trees", 3000), ("all", 3000), ("realization", 2000),
])
def test_growth_root_past_double_range_is_usage_error(capsys, suite, d):
    # Newton's start 1.5^d leaves double range from d = 1751
    assert cli.main(["verify", "--suite", suite, "--d", str(d)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Newton for x^") and f"overflows at d = {d}" in err
    assert "Traceback" not in err


def test_arc_coloring_past_the_length_table_is_usage_error(tmp_path, capsys):
    # stage 200 is over the budget, and past the table of |sigma^a(1)| that
    # counts the stage a depth needs: the budget refuses it first
    rauzy._orbit_index.cache_clear()
    argv = ["plot", "--color", "arc:200", "--depth", "10", "--out", str(tmp_path / "a.svg")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stage 200 would hold about ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [["--color", "arc:2"], ["--kind", "zeta", "--n", "30"]],
                         ids=["arc", "zeta"])
def test_plot_over_the_budget_is_refused_before_the_projection(monkeypatch, tmp_path, capsys,
                                                              argv):
    # the projection of 10^7 prefixes takes 444 MB; the budget must refuse first
    def projection(depth):
        raise AssertionError(f"projected {depth:,} prefixes before the budget refused")

    monkeypatch.setattr(rauzy, "_projected_prefix_orbit", projection)
    rauzy._orbit_index.cache_clear()
    argv = ["plot", *argv, "--depth", "10000000", "--out", str(tmp_path / "p.svg")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stage 41 would hold about 19,204,608 edges")


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


# SHA-256 of `gen --n 14` per d and format: the stage tree as JSON and DOT,
# and the realized coordinates as CSV
_GOLDEN_GEN = {
    (3, "json"): "24218d86a09b37cfdc8f58e71e77b7564035190de3426957b5329aebbf5bfd7a",
    (3, "dot"): "a641847d7349b4ced8f684a56b6319d89bf8e94e3965f205e12a752efd758f80",
    (3, "csv"): "69d2e78143ccaac3b7f71a683b07b37f97e5d608440a743253c15cb39572dd55",
    (4, "json"): "195fa08d575b6f453f7eebd34a173ef6dca1175a92d2498ecffe679b6d45d9c9",
    (4, "dot"): "8efa86d0d592dacd9ad2ba278e7b7c696c34153c2edada5188d83f54791bd6d3",
    (4, "csv"): "df1687d078e4ab34dfcb407afceffc001b603ed88b3eb529c5490caf8b35771c",
}


@pytest.mark.parametrize("d, fmt", sorted(_GOLDEN_GEN))
def test_gen_output_is_pinned(d, fmt, tmp_path):
    out = tmp_path / f"t.{fmt}"
    assert cli.main(["gen", "--d", str(d), "--n", "14", "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GOLDEN_GEN[d, fmt]


def _tree_payload(tree, stage):
    """What `gen --format json` encodes: the tree's d, root, vertices and
    edge triples, and the stage."""
    return {
        "d": tree.d,
        "root": tree.root,
        "vertices": list(tree.vertices),
        "edges": [list(e) for e in tree.edges],
        "stage": stage,
    }


@pytest.mark.parametrize("d", [3, 4])
def test_gen_json_matches_the_json_encoder(d, tmp_path):
    out = tmp_path / "t.json"
    for n in range(9):
        assert cli.main(["gen", "--d", str(d), "--n", str(n), "--out", str(out)]) == 0
        payload = _tree_payload(core.shared_scan(d).it.tree_at(n), n)
        assert out.read_text() == json.dumps(payload, indent=2) + "\n", n
    empty = trees.ColoredTree(d, [])   # no root, and empty lists stay "[]"
    assert cli._tree_json(empty, 0) == json.dumps(_tree_payload(empty, 0), indent=2) + "\n"


# the five full-size artifact calls of the benchmark (`artifact_commands` in
# perfbench/run.py), whose output digests perfbench/expected.json pins
_ARTIFACT_ARGV = {
    "gen-json": ["gen", "--d", "3", "--n", "22", "--format", "json"],
    "gen-dot": ["gen", "--d", "3", "--n", "22", "--format", "dot"],
    "gen-csv": ["gen", "--d", "3", "--n", "22", "--format", "csv"],
    "plot-rauzy": ["plot", "--kind", "rauzy", "--depth", "200000", "--color", "cylinder:7",
                   "--format", "svg"],
    "plot-zeta": ["plot", "--kind", "zeta", "--n", "4", "--depth", "100000", "--format", "csv"],
}


def test_benchmark_artifacts_match_their_pinned_digests(tmp_path):
    expected = json.loads((Path(__file__).parents[1] / "perfbench" / "expected.json").read_text())
    want = expected["full"]["artifacts"]
    assert sorted(want) == sorted(_ARTIFACT_ARGV)
    for name, argv in _ARTIFACT_ARGV.items():
        out = tmp_path / f"{name}.{argv[-1]}"
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want[name], name
        out.unlink()


@pytest.mark.parametrize("kind", ["rauzy", "zeta"])
def test_plot_depth_over_the_limit_is_usage_error(monkeypatch, tmp_path, capsys, kind):
    # a small limit stands in for the real one, so no test builds a huge prefix
    monkeypatch.setattr(rauzy, "MAX_PREFIX_LEN", 1000)
    argv = ["plot", "--kind", kind, "--n", "2", "--out", str(tmp_path / "p.svg")]
    assert cli.main(argv + ["--depth", "1001"]) == 2
    err = capsys.readouterr().err
    assert err == "error: depth must be in 0..1,000 letters, got 1,001\n"
    assert cli.main(argv + ["--depth", "1000"]) == 0
    with pytest.raises(ValueError, match="got 1,001"):
        rauzy.fractal_cloud(1001, "cylinder:7")
    with pytest.raises(ValueError, match="got 1,001"):
        rauzy.zeta_cloud(2, 1001)


# SHA-256 of `verify --suite all --format json` for d = 3, 4, 5: the check
# names, scopes, statuses and witnesses of the default audit, byte for byte
_GOLDEN_REPORTS = {
    3: "8fabfbcaf9374366068ba3ee8a5e136e4cbd3eb41b60717734037aa06f6feacb",
    4: "5844d9078c822e3fec0d30ce13083c6f7dd63b97e1c68529e996084b9835f627",
    5: "38f0a2ee18b25d3b079c0dd8dcd5a284cdcd3baeba94fe02f5579a7a0dde5cca",
}


@pytest.mark.parametrize("d", sorted(_GOLDEN_REPORTS))
def test_default_audit_report_is_pinned(d, capsys):
    assert cli.main(["verify", "--suite", "all", "--d", str(d), "--format", "json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == _GOLDEN_REPORTS[d]


# SHA-256 of `verify --suite core --d 3 --max-stage 16 --format json`: the
# staged checks past the default scope, byte for byte
_GOLDEN_DEEP_CORE = "6070231ba5459fd54693c0f5116b9c0164f39b8291aea07632fdd735948f5b1c"


def test_deep_core_report_is_pinned(capsys):
    argv = ["verify", "--suite", "core", "--d", "3", "--max-stage", "16", "--format", "json"]
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == _GOLDEN_DEEP_CORE


@pytest.mark.parametrize("d", [6, 11, 13, 14, 23, 30])
def test_default_scope_passes_every_suite(d):
    # the default cap is at least 2d: the first two-point shift domain is at n = d
    results = verify.run_suite("all", d)
    assert [r.name for r in results if r.status != "pass"] == []
    assert {r.scope for r in results if r.name == "path-distances"} == {f"d={d}, n<={2 * d}"}


def test_core_audit_reaches_stage_14():
    results = verify.run_suite("core", 3, max_stage=14)
    assert [r.name for r in results if r.status != "pass"] == []
