"""Audit suites: every statement the package claims, re-checked on demand.

Each claim is one function that takes d and its scope and returns failure
strings; the acceptance tests call the same functions at their own scope.
A claim that is already a single library call (a CoreScan.check_* method,
a rauzy.check_* function) is called directly by both.  The geometric
claims for one d share the process-wide scan of `core.shared_scan`, so its
tree iteration and realization are built once.

Each suite returns a list of CheckResult records with descriptive names,
the scanned scope, and witness strings for anything that failed.  The CLI
renders these as a table and a versioned JSON report.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import core, rauzy
from .algnum import ExactLength, stretch_root
from .freegroup import (
    cancellation_report,
    family_inverse,
    nielsen_probe,
    p_star,
    tribonacci_inverse,
)
from .prefix_suffix import development_tail_word, shift_development
from .trees import check_budget, family_tree_substitution, initial_tree
from .words import (
    DEFAULT_PREFIX_LEN,
    bispecials_by_generation,
    complexity,
    expected_class_count,
    fixed_point_prefix,
    growth_root,
    language,
    measure_recursion_gap,
    measure_spectrum,
    word_str,
)

SUITES = ("words", "trees", "realization", "core", "rauzy", "all")


@dataclass
class CheckResult:
    name: str
    scope: str
    status: str                      # "pass" | "fail"
    witnesses: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "scope": self.scope,
            "status": self.status,
            "witnesses": self.witnesses,
        }


def _result(name: str, scope: str, failures: list[str], cap: int = 5) -> CheckResult:
    shown = failures[:cap]
    if len(failures) > cap:
        shown.append(f"... and {len(failures) - cap} more")
    return CheckResult(name, scope, "fail" if failures else "pass", shown)


# -- words ------------------------------------------------------------------


def factor_complexity(d: int, max_n: int) -> list[str]:
    """The fixed point has (d-1)n + 1 factors of each length n <= max_n."""
    return [
        f"n={n}: {complexity(d, n)} != {(d - 1) * n + 1}"
        for n in range(max_n + 1)
        if complexity(d, n) != (d - 1) * n + 1
    ]


def bispecial_oracle(d: int, max_len: int) -> list[str]:
    """The generation rule lists exactly the bispecial factors up to max_len."""
    gen = bispecials_by_generation(d, max_len)
    brute = [w for n in range(1, max_len + 1) for w in language(d, n).bispecial]
    fails = []
    if sorted(gen) != sorted(brute):
        fails.append(
            f"generation rule {[word_str(w) for w in gen]} != "
            f"enumeration {[word_str(w) for w in brute]}"
        )
    if d == 3 and [len(w) for w in gen[:5]] != [1, 2, 4, 6, 10]:
        fails.append(f"first lengths {[len(w) for w in gen[:5]]} != [1, 2, 4, 6, 10]")
    return fails


def development_tails(d: int, max_shift: int) -> list[str]:
    """The development of the k-shifted fixed point spells its tail, k <= max_shift."""
    text = fixed_point_prefix(d, max_shift + 50)
    fails = []
    for k in range(max_shift + 1):
        dev = shift_development(d, k, 20)
        got = development_tail_word(d, dev, 50)
        if got != text[k : k + 50]:
            fails.append(f"shift {k}: tail {word_str(got[:12])}... wrong")
    return fails


def measure_snapping(d: int, ms, tol: float, prefix_len: int) -> list[str]:
    """Length-m cylinder measures snap to powers of lambda in the predicted classes."""
    fails = []
    for m in ms:
        spec = measure_spectrum(d, m, prefix_len)
        if not spec.ok(tol):
            fails.append(f"m={m}: snap residual {spec.max_residual:.2e} > {tol}")
        if spec.class_count != expected_class_count(d, m):
            fails.append(
                f"m={m}: {spec.class_count} classes != {expected_class_count(d, m)}"
            )
    return fails


def measure_recursion(d: int, max_len: int, prefix_len: int) -> list[str]:
    """mu(C_u) = lambda * mu(C_sigma(u)) within 2e-3 for |u| <= max_len."""
    gap = measure_recursion_gap(d, max_len, prefix_len)
    return [] if gap < 2e-3 else [f"recursion gap {gap:.2e} >= 2e-3"]


def cancellation_probes(d: int, depth: int) -> list[str]:
    """Cancellation happens where predicted, and never for the family inverse."""
    fails = []
    trib = cancellation_report(tribonacci_inverse(), [(3,)], 2)[(3,)]
    if trib != [False, True]:
        fails.append(f"tribonacci-inverse seed 3: flags {trib} != [False, True]")
    niel = cancellation_report(nielsen_probe(), [(1, 3)], 10)[(1, 3)]
    if niel != [True] * 10:
        fails.append(f"nielsen seed 1.3: flags {niel} != all True")
    inv = family_inverse(d)
    for a in range(1, d + 1):
        flags = cancellation_report(inv, [(a,)], depth)[(a,)]
        if any(flags):
            fails.append(f"family inverse seed {a}: unexpected cancellation {flags}")
    return fails


def growth_roots(d: int) -> list[str]:
    """lambda and rho solve their defining equations to 1e-12."""
    lam, eta = growth_root(d), stretch_root(d)
    fails = []
    if abs(lam**d - lam ** (d - 1) - 1) >= 1e-12:
        fails.append(f"lambda residual {abs(lam**d - lam**(d-1) - 1):.2e}")
    if abs(eta**d - eta - 1) >= 1e-12:
        fails.append(f"eta residual {abs(eta**d - eta - 1):.2e}")
    return fails


def words_suite(
    d: int, tol: float = 1e-3, prefix_len: int = DEFAULT_PREFIX_LEN
) -> list[CheckResult]:
    ms = (1, 2, 3, 4, 5, 7, 11) if d == 3 else (1, 2, 3, 4, 5)
    return [
        _result("factor-complexity", f"d={d}, n<=30", factor_complexity(d, 30)),
        _result("bispecial-oracle", f"d={d}, lengths<=60", bispecial_oracle(d, 60)),
        _result("development-tails", f"d={d}, shifts<=40", development_tails(d, 40)),
        _result(
            "measure-snapping", f"d={d}, m in {ms}",
            measure_snapping(d, ms, tol, prefix_len),
        ),
        _result("measure-recursion", f"d={d}, |u|<=4", measure_recursion(d, 4, prefix_len)),
        _result("cancellation-probes", f"d={d}, depth<=12", cancellation_probes(d, 12)),
        _result("growth-roots", f"d={d}", growth_roots(d)),
    ]


# -- trees ------------------------------------------------------------------


def _match_spectrum(observed, expected, extras_test, tol=1e-6) -> list[str]:
    """Greedily pair expected roots with eigenvalues; test the leftovers."""
    pool = list(observed)
    fails = []
    for r in expected:
        best = min(range(len(pool)), key=lambda i: abs(pool[i] - r))
        if abs(pool[best] - r) > tol:
            fails.append(f"no eigenvalue near {r:.6f}")
        pool.pop(best)
    for z in pool:
        err = extras_test(z)
        if err:
            fails.append(err)
    return fails


def initial_star(d: int) -> list[str]:
    """T_0 is a star of d edges colored 1..d around the root."""
    t0 = initial_tree(d)
    fails = []
    if sorted(c for _, _, c in t0.edges) != list(range(1, d + 1)):
        fails.append(f"colors {sorted(c for _, _, c in t0.edges)}")
    if t0.degree(t0.root) != d:
        fails.append(f"root degree {t0.degree(t0.root)}")
    return fails


def discerned_stages(d: int, max_stage: int) -> list[str]:
    """Every stage tree up to max_stage is discerned."""
    it = core.shared_scan(d).it
    return [
        f"stage {n} not discerned"
        for n in range(max_stage + 1)
        if not it.tree_at(n).is_discerned()
    ]


def trunk_determinism(d: int) -> list[str]:
    """The trunk word of rule i projects to the inverse image of letter i."""
    ts = family_tree_substitution(d)
    inv = family_inverse(d)
    fails = []
    for i in range(1, d + 1):
        got = p_star(d, ts.trunk_word(i))
        if got != inv.images[i]:
            fails.append(f"rule {i}: trunk projects to {got}, want {inv.images[i]}")
    return fails


def matrix_spectra(d: int) -> list[str]:
    """Edge and trunk matrices carry the roots of sigma and of its inverse."""
    ts = family_tree_substitution(d)
    sigma_roots = np.roots([1, -1] + [0] * (d - 2) + [-1])
    eta_roots = np.roots([1] + [0] * (d - 2) + [-1, -1])
    edge_ev = np.linalg.eigvals(ts.incidence_matrix().astype(float))
    trunk_ev = np.linalg.eigvals(ts.trunk_matrix().astype(float))
    fails = _match_spectrum(
        edge_ev, sigma_roots,
        lambda z: None if abs(abs(z) - 1) < 1e-6 else f"edge extra {z:.6f} not on unit circle",
    )
    fails += _match_spectrum(
        trunk_ev, eta_roots,
        lambda z: None if abs(z) < 1e-8 else f"trunk extra {z:.6f} not zero",
    )
    return fails


def trees_suite(d: int, max_stage: int = 12) -> list[CheckResult]:
    return [
        _result("rule-validation", f"d={d}", family_tree_substitution(d).validate().failures),
        _result("initial-star", f"d={d}", initial_star(d)),
        _result("discerned-stages", f"d={d}, n<={max_stage}", discerned_stages(d, max_stage)),
        _result("trunk-determinism", f"d={d}, rules 1..{d}", trunk_determinism(d)),
        _result("matrix-spectra", f"d={d}", matrix_spectra(d)),
    ]


# -- realization ------------------------------------------------------------


def edge_length_law(d: int, max_stage: int) -> list[str]:
    """Every stage-n edge realizes with length base(color) * rho^-n exactly."""
    real = core.shared_scan(d).real
    fails = []
    for n in range(max_stage + 1):
        try:
            real.edge_length_check(n)
        except ValueError as exc:
            fails.append(f"stage {n}: {exc}")
    return fails


def stage_convergence(d: int, max_stage: int) -> list[str]:
    """The gap between realized stages n-1 and n is at most rho^-(n+1), exactly;
    with no stage n >= 1 to compare, the check fails rather than pass empty."""
    real = core.shared_scan(d).real
    fails = []
    for n in range(1, max_stage + 1):
        bound = ExactLength.rho_power(d, -1 - n)
        try:
            gap = real.hausdorff_gap(n)
        except ValueError as exc:
            fails.append(f"stage {n}: {exc}")
            continue
        if bound < gap:
            fails.append(f"stage {n}: gap {gap.value():.6f} > {bound.value():.6f}")
    if max_stage < 1:
        fails.append(f"no stage to compare at n<={max_stage}")
    return fails


def realization_suite(d: int, max_stage: int = 10) -> list[CheckResult]:
    scope = f"d={d}, n<={max_stage}"
    return [
        _result("edge-length-law", scope, edge_length_law(d, max_stage)),
        _result("stage-convergence", scope, stage_convergence(d, max_stage)),
    ]


# -- core -------------------------------------------------------------------


def _each_stage(check, max_stage: int) -> list[str]:
    """Failures of check(n) for every stage n <= max_stage."""
    fails = []
    for n in range(max_stage + 1):
        fails += check(n)
    return fails


def label_inventory(d: int) -> list[str]:
    """Stage-m branch labels are the suffixes of l_m, for m <= 5."""
    scan = core.shared_scan(d)
    fails = []
    for m in range(1, 6):
        fails += scan.check_inventory(m)
    if d == 3:
        counts = [len(scan.inventory(m)) for m in range(1, 6)]
        if counts != [2, 3, 5, 7, 11]:
            fails.append(f"label counts {counts} != [2, 3, 5, 7, 11]")
    return fails


def address_map_consistency(d: int, max_stage: int) -> list[str]:
    """Direct and incremental labels agree at every stage up to max_stage."""
    return _each_stage(core.shared_scan(d).check_f0, max_stage)


def approximation_steps(d: int) -> list[str]:
    """Appending sigma^a(1^-1) to a label moves its point by rho^-a exactly."""
    scan = core.shared_scan(d)
    fails = scan.check_approx_steps([0, d, 2 * d])
    fails += scan.check_approx_steps([1, d + 1, 2 * d + 2])
    return fails


def partition_sequence(d: int, max_stage: int) -> list[str]:
    """Stage n determines the length-|l_n|+1 partition and has matching edge count."""
    scan = core.shared_scan(d)
    fails = []
    mseq = [core.determined_partition(d, n) for n in range(6)]
    want = [1] + [len(core.l_word(d, n)) + 1 for n in range(1, 6)]
    if mseq != want:
        fails.append(f"partition sizes {mseq} != {want}")
    if d == 3 and mseq != [1, 2, 3, 5, 7, 11]:
        fails.append(f"partition sizes {mseq} != [1, 2, 3, 5, 7, 11]")
    for n in range(max_stage + 1):
        edges = len(scan.it.tree_at(n).edges)
        expected = (d - 1) * core.determined_partition(d, n) + 1
        if edges != expected:
            fails.append(f"stage {n}: {edges} edges != {expected}")
    return fails


def arc_overlaps(d: int, max_stage: int) -> list[str]:
    """Deep shadows of distinct simple arcs meet in at most one branch point."""
    return _each_stage(core.shared_scan(d).check_arc_overlaps, max_stage)


def arc_cylinders(d: int, max_stage: int, deep: int) -> list[str]:
    """Simple arcs match the length-m cylinders their stage determines and
    absorb every label born up to stage deep."""
    scan = core.shared_scan(d)
    return _each_stage(lambda n: scan.check_arc_cylinders(n, deep), max_stage)


def shift_isometries(d: int, max_stage: int) -> list[str]:
    """Letter shifts are exact partial isometries with nearly disjoint domains.

    A domain of fewer than two branch points compares no distance; if every
    letter's domain is like that, the check fails rather than pass empty.
    """
    scan = core.shared_scan(d)
    fails = []
    for a in range(1, d + 1):
        fails += scan.check_shift_isometry(a, max_stage)
        fails += scan.check_shift_conjugacy(a, max_stage)
    fails += scan.check_domain_overlaps(max_stage)
    if all(len(scan.shift_domain(a, max_stage)) < 2 for a in range(1, d + 1)):
        fails.append(f"no shift-domain pair to compare at n<={max_stage}")
    return fails


def path_distances(d: int, max_stage: int) -> list[str]:
    """Realized branch-point distances equal the coded path lengths.

    Stages with fewer than two branch points compare nothing; if every
    stage is like that, the check fails rather than pass empty.  A stage
    keeps every branch point of the one before (substitution recolours
    edges or puts a star on them, and an anchor keeps its degree), so the
    last stage decides.
    """
    scan = core.shared_scan(d)
    fails = _each_stage(scan.check_path_distances, max_stage)
    if len(scan.it.tree_at(max_stage).branch_points()) < 2:
        fails.append(f"no branch-point pair to compare at n<={max_stage}")
    return fails


def core_suite(d: int, max_stage: int = 12) -> list[CheckResult]:
    arc_stage = min(6, max_stage)
    scan = core.shared_scan(d)
    return [
        _result("label-inventory", f"d={d}, m<=5", label_inventory(d)),
        _result("bispecial-chain", f"d={d}, m<=6", scan.check_bispecial_match(6)),
        _result(
            "writing-exponents", f"d={d}, n<={max_stage}",
            scan.check_writing_exponents(max_stage),
        ),
        _result(
            "apparition-chain", f"d={d}, n<={max_stage}",
            scan.check_apparition_chain(max_stage),
        ),
        _result(
            "branching-neighbor", f"d={d}, n<={max_stage}",
            scan.check_branching_neighbor(max_stage),
        ),
        _result(
            "address-map-consistency", f"d={d}, n<={max_stage}",
            address_map_consistency(d, max_stage),
        ),
        _result(
            "label-injectivity", f"d={d}, stage {min(10, max_stage)}",
            scan.check_injective(min(10, max_stage)),
        ),
        _result("approximation-steps", f"d={d}", approximation_steps(d)),
        _result(
            "partition-sequence", f"d={d}, n<={max_stage}",
            partition_sequence(d, max_stage),
        ),
        _result("initial-arcs", f"d={d}", scan.check_initial_arcs()),
        _result("arc-overlaps", f"d={d}, n<={arc_stage}", arc_overlaps(d, arc_stage)),
        _result("arc-cylinders", f"d={d}, n<={arc_stage}", arc_cylinders(d, arc_stage, max_stage)),
        _result(
            "shift-isometries", f"d={d}, letters 1..{d}, n<={max_stage}",
            shift_isometries(d, max_stage),
        ),
        _result("path-distances", f"d={d}, n<={max_stage}", path_distances(d, max_stage)),
    ]


# -- rauzy ------------------------------------------------------------------


def tree_image_arcs(max_stage: int, depth: int) -> list[str]:
    """Orbit points on the embedded stage-n tree fall in 2m+1 arc classes."""
    fails = []
    for n in range(max_stage + 1):
        cloud = rauzy.zeta_cloud(n, depth)
        arcs = {t for t in cloud.tags if t != "-"}
        want = 2 * core.determined_partition(3, n) + 1
        if len(arcs) != want:
            fails.append(f"stage {n}: {len(arcs)} arc classes != {want}")
    return fails


def artifact_determinism(depth: int) -> list[str]:
    """SVG and CSV renderings of one cloud are byte-identical across runs."""
    cloud = rauzy.fractal_cloud(depth, "cylinder:7")
    fails = []
    with tempfile.TemporaryDirectory() as tmp:
        for render, ext in ((rauzy.render_svg, "svg"), (rauzy.export_csv, "csv")):
            blobs = []
            for k in range(2):
                p = Path(tmp) / f"{k}.{ext}"
                render(cloud, str(p))
                blobs.append(p.read_bytes())
            if blobs[0] != blobs[1]:
                fails.append(f"{ext} output differs between runs")
    return fails


def rauzy_suite(d: int, depth: int = 20_000) -> list[CheckResult]:
    if d != 3:
        return [
            CheckResult(
                "planar-projection", f"d={d}", "fail",
                ["planar projection requires d=3"],
            )
        ]
    return [
        _result("projection-bounded", "depths 50k/100k", rauzy.check_boundedness()),
        _result("projection-contraction", "k<=18", rauzy.check_contraction()),
        _result(
            "cylinder-arc-partition", f"depth {depth}, m=7 vs stage 4",
            rauzy.check_partition_match(depth),
        ),
        _result("tree-image-arcs", "n<=2, depth 3000", tree_image_arcs(2, 3000)),
        _result(
            "translate-congruence", f"depth {depth}, m=7",
            rauzy.check_translate_congruence(depth),
        ),
        _result("artifact-determinism", "depth 2000", artifact_determinism(2000)),
    ]


# -- entry ------------------------------------------------------------------


def run_suite(
    suite: str,
    d: int,
    max_stage: int | None = None,
    tol: float = 1e-3,
    prefix_len: int = DEFAULT_PREFIX_LEN,
) -> list[CheckResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}, choose from {SUITES}")
    if max_stage is not None and max_stage < 0:
        raise ValueError(f"max_stage must be >= 0, got {max_stage}")
    if prefix_len < 1:
        raise ValueError(f"prefix_len must be >= 1, got {prefix_len}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    cap = max_stage if max_stage is not None else (12 if d == 3 else 10)
    check_budget(d, cap + 1)   # the address map reads one stage past the cap
    out: list[CheckResult] = []
    if suite in ("words", "all"):
        out += words_suite(d, tol, prefix_len)
    if suite in ("trees", "all"):
        out += trees_suite(d, cap)
    if suite in ("realization", "all"):
        out += realization_suite(d, cap)
    if suite in ("core", "all"):
        out += core_suite(d, cap)
    if suite == "rauzy" or (suite == "all" and d == 3):
        out += rauzy_suite(d)
    return out


def to_report(suite: str, d: int, results: list[CheckResult]) -> dict:
    return {
        "report_version": 1,
        "suite": suite,
        "d": d,
        "status": "pass" if all(r.status == "pass" for r in results) else "fail",
        "checks": [r.to_json() for r in results],
    }
