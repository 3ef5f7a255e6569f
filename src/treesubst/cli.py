"""Command-line front door: generate stage trees, run audits, plot projections.

Exit codes: 0 all requested checks passed, 1 some check failed, 2 bad
usage, configuration or output path.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import core, rauzy, trees, verify
from .trees import ColoredTree, RulePattern, TreeSubstitution, check_budget
from .words import distinct

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treesubst",
        description=__doc__.splitlines()[0],
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--d", type=int, default=3, help="alphabet size, at least 3")
    common.add_argument("--out", type=Path, default=None, help="output path")

    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", parents=[common], help="write one stage tree")
    gen.add_argument("--n", type=int, default=0, help="stage to generate")
    gen.add_argument(
        "--format", choices=("json", "dot", "csv"), default="json",
        help="tree as json/dot, realized coordinates as csv",
    )

    ver = sub.add_parser("verify", parents=[common], help="run audit suites")
    ver.add_argument("--suite", choices=verify.SUITES, default="all")
    ver.add_argument("--max-stage", type=int, default=None, help="deepest stage to scan")
    ver.add_argument("--format", choices=("table", "json"), default="table")
    ver.add_argument("--rules", type=Path, default=None,
                     help="audit a rule-set JSON file instead of the built-in family")

    plot = sub.add_parser("plot", parents=[common], help="plot planar projections")
    plot.add_argument("--kind", choices=("rauzy", "zeta"), default="rauzy")
    plot.add_argument("--depth", type=int, default=20_000, help="prefix depth")
    plot.add_argument("--n", type=int, default=4, help="stage for --kind zeta")
    plot.add_argument("--color", default="cylinder:7",
                      help="cylinder:<m> or arc:<n> (rauzy kind only)")
    plot.add_argument("--format", choices=("svg", "csv"), default="svg")

    return parser


class _AsText:
    """Bytes written on as ASCII text, to a text stream with no byte buffer
    under it (such as an in-process capture of standard output)."""

    def __init__(self, stream):
        self.stream = stream

    def write(self, data) -> None:
        self.stream.write(bytes(data).decode("ascii"))


def _write(pieces: list, out: Path | None) -> None:
    """Write each piece, bytes or (n, fields) rows by `rauzy._write_rows`, to
    out or to standard output's byte buffer.  The pieces are made before out
    is opened, so a failure while making them leaves no file."""

    def emit(fh):
        for piece in pieces:
            if isinstance(piece, bytes):
                fh.write(piece)
            else:
                rauzy._write_rows(fh, *piece)

    if out is None:
        sys.stdout.flush()   # text printed before goes first
        emit(getattr(sys.stdout, "buffer", None) or _AsText(sys.stdout))
    else:
        with open(out, "wb") as fh:
            emit(fh)
        print(f"wrote {out}")


# -- gen --------------------------------------------------------------------

DOT_PALETTE = ["black", "red", "blue", "green3", "orange", "purple",
               "brown", "cyan3", "magenta", "gray40"]


def _json_list(n: int, fields: list) -> list:
    """n rows of `fields` as json.dumps(..., indent=2) lists them at depth 1:
    a comma after each row but the last, and "[]" when empty."""
    last = (np.arange(n) == n - 1).view(np.int8)
    return [b"[\n", (n, [*fields, (last, [",\n", "\n"])]), b"  ]"] if n else [b"[]"]


def _tree_json(tree: ColoredTree, stage: int) -> list:
    """json.dumps({d, root, vertices, edges as [s, t, c], stage}, indent=2) + "\n"."""
    size, cut = len(tree.vertices), b",\n      "
    root = json.dumps(tree.root).encode()
    return [b'{\n  "d": %d,\n  "root": %s,\n  "vertices": ' % (tree.d, root),
            *_json_list(size, [b"    ", (np.arange(size), 0)]),
            b',\n  "edges": ',
            *_json_list(len(tree.src), [b"    [\n      ", (tree.src, 0), cut, (tree.dst, 0), cut,
                                        (tree.color, 0), b"\n    ]"]),
            b',\n  "stage": %d\n}\n' % stage]


def _tree_dot(tree: ColoredTree) -> list:
    """The Graphviz digraph: the root double-circled, each edge labelled with
    its color and drawn in that color's palette entry."""
    head = b"digraph stage_tree {  // d=%d\n" % tree.d
    if tree.root is not None:
        head += b"  v%d [shape=doublecircle];\n" % tree.root
    colors, _, code = distinct(tree.color)
    labels = [f'[label="{c}", color={DOT_PALETTE[c % len(DOT_PALETTE)]}];\n'
              for c in colors.tolist()]
    rows = [b"  v", (tree.src, 0), b" -> v", (tree.dst, 0), b" ", (code, labels)]
    return [head, (len(tree.src), rows), b"}\n"]


def _tree_csv(scan: core.CoreScan, n: int) -> list:
    """Per vertex of stage n: id, birth stage, degree, its realized norm as
    '%.9f' and its free-product address."""
    norm, values, texts = scan.real.coordinates(n)
    ids = np.arange(len(texts))
    return [b"vertex,birth_stage,degree,norm,address\n",
            (len(ids), [(ids, 0), b",", (scan.it.birth_stage(ids), 0), b",",
                        (scan.it.tree_at(n).degrees(), 0), b",",
                        (norm, ["%.9f" % x for x in values.tolist()]), b",", (ids, texts), b"\n"])]


def cmd_gen(args) -> int:
    check_budget(args.d, args.n)
    scan = core.shared_scan(args.d)
    tree = scan.it.tree_at(args.n)
    if args.format == "csv":
        _write(_tree_csv(scan, args.n), args.out)
    else:
        _write(_tree_json(tree, args.n) if args.format == "json" else _tree_dot(tree), args.out)
    return EXIT_OK


# -- verify -----------------------------------------------------------------


def _load_rules(d: int, path: Path) -> TreeSubstitution:
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read rules file {path}: {exc}") from None
    except RecursionError:
        raise ValueError(f"cannot read rules file {path}: nested too deeply") from None
    if not isinstance(data, dict) or not isinstance(data.get("rules"), dict):
        raise ValueError(f"rules file {path}: expected an object with a 'rules' object")
    d = data.get("d", d)
    if not isinstance(d, int) or d < 3:
        raise ValueError(f"rules file {path}: 'd' must be an integer >= 3")
    rules = {}
    for key, pattern in data["rules"].items():
        try:
            color = int(key)
        except ValueError:
            raise ValueError(f"rules file {path}: rule key {key!r} is not an integer") from None
        if not isinstance(pattern, list) or not all(_is_edge(e) for e in pattern):
            raise ValueError(
                f"rules file {path}: rule {key} must be a list of "
                "[src, dst, color] edges, each color an integer in int32"
            )
        rules[color] = RulePattern(color, tuple(map(tuple, pattern)))
    return TreeSubstitution(d, rules)


def _is_edge(edge) -> bool:
    """A rule edge in a rules file: [src symbol, dst symbol, integer color],
    the color no boolean and within int32, where the tree columns keep it."""
    return (
        isinstance(edge, list) and len(edge) == 3
        and isinstance(edge[0], str) and isinstance(edge[1], str)
        and type(edge[2]) is int and -(1 << 31) <= edge[2] < 1 << 31
    )


def _rules_audit(ts: TreeSubstitution) -> list[verify.CheckResult]:
    """Structural audit of a custom rule set: three iterates from one 2-edge,
    each refused over EDGE_BUDGET by its exact size before it is built."""
    tree = ColoredTree(ts.d, [(0, 1, 2)])
    size = np.array([0] + [len(ts.rules[c].edges) for c in range(1, 2 * ts.d - 1)])
    fails = []
    for step in range(1, 4):
        edges = int(np.bincount(tree.color, minlength=len(size)) @ size)
        if edges > trees.EDGE_BUDGET:
            raise ValueError(f"iterate {step} would hold {edges:,} edges, "
                             f"over the budget of {trees.EDGE_BUDGET:,}")
        tree = ts.apply(tree).tree
        if not tree.is_discerned():
            fails.append(f"iterate {step} is not discerned")
    return [verify.CheckResult("rule-iteration", f"d={ts.d}, 3 steps from a 2-edge",
                               "fail" if fails else "pass", fails)]


def _emit_report(report: dict, fmt: str, out: Path | None) -> None:
    if fmt == "table":
        for entry in report["checks"]:
            print(f"{entry['status']:4s}  {entry['name']:28s} {entry['scope']}")
            for w in entry["witnesses"]:
                print(f"          {w}")
        print(f"suite {report['suite']}: {report['status']}")
    if fmt == "json" or out is not None:
        _write([(json.dumps(report, indent=2) + "\n").encode()], out)


def cmd_verify(args) -> int:
    if args.rules is not None:
        ts = _load_rules(args.d, args.rules)
        report = ts.validate()
        if not report.ok:
            for line in report.failures:
                print(line, file=sys.stderr)
            print("rule set rejected", file=sys.stderr)
            return EXIT_USAGE
        results = _rules_audit(ts)
        _emit_report(verify.to_report("rules", ts.d, results), args.format, args.out)
        return EXIT_OK if all(r.status == "pass" for r in results) else EXIT_CHECK

    results = verify.run_suite(args.suite, args.d, args.max_stage)
    _emit_report(verify.to_report(args.suite, args.d, results), args.format, args.out)
    return EXIT_OK if all(r.status == "pass" for r in results) else EXIT_CHECK


# -- plot -------------------------------------------------------------------


def cmd_plot(args) -> int:
    if args.d != 3:
        # same wording as the library gate so scripts can match on it
        print(f"planar projection requires d=3, got d={args.d}", file=sys.stderr)
        return EXIT_USAGE
    if args.kind == "rauzy":
        cloud = rauzy.fractal_cloud(args.depth, args.color)
    else:
        cloud = rauzy.zeta_cloud(args.n, args.depth)
    out = args.out
    if out is None:
        out = Path(f"{args.kind}.{args.format}")
    if args.format == "svg":
        rauzy.render_svg(cloud, str(out))
    else:
        rauzy.export_csv(cloud, str(out))
    print(f"wrote {out} ({len(cloud)} points)")
    return EXIT_OK


# -- entry ------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command != "plot" and args.d < 3:
        print(f"--d must be at least 3, got {args.d}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {"gen": cmd_gen, "verify": cmd_verify, "plot": cmd_plot}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
