"""Audit suites: every statement the package claims, re-checked on demand.

Each claim is one function that takes d and its scope and returns failure
strings; the acceptance tests call the same functions at their own scope.
A claim that is already a single library call (a CoreScan.check_* method,
a rauzy.check_* function) is called directly by both.  A staged check
reads one stage n; `_each_stage` runs it over the stages of a scope.  The geometric
claims for one d share the process-wide scan of `core.shared_scan`, so its
tree iteration and realization are built once, and the per-stage verdicts
that several claims read (the address map, path distances) are decided
once.  The core suite runs every claim to its max_stage; the arcs of stage
n read stage n + 2d - 2, so the arc checks stop where that is one past it.
The cylinder measures of the words suite are powers of lambda certified in
integers (`words.measure_spectrum`).  The two planar claims of the rauzy
suite are proofs from the integer characteristic polynomial of the
incidence matrix (`rauzy.pisot_failures`), and translate-congruence is a
certificate on the prefix: the positions that one equal-measure cylinder
tags are those of the next shifted by a few letters.  No measure or rauzy
claim is decided by a tolerance.

Each suite returns a list of CheckResult records with descriptive names,
the scanned scope, and witness strings for anything that failed.  The CLI
renders these as a table and a versioned JSON report.
"""

from __future__ import annotations

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
from .trees import ColoredTree, check_budget, family_tree_substitution
from .words import (
    _power_lengths,
    bispecials,
    bispecials_by_generation,
    complexity,
    expected_class_count,
    family_substitution,
    fixed_point_prefix,
    growth_root,
    measure_spectrum,
    word_str,
)

SUITES = ("words", "trees", "realization", "core", "rauzy", "all")
_WITNESS_CAP = 5          # witnesses a check shows before "... and k more"
_SPECTRUM_TOL = 1e-6      # how far an eigenvalue may lie from its root
_RAUZY_DEPTH = 20_000     # orbit points of the rauzy suite's clouds


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


def _result(name: str, scope: str, failures: list[str]) -> CheckResult:
    shown = failures[:_WITNESS_CAP]
    if len(failures) > _WITNESS_CAP:
        shown.append(f"... and {len(failures) - _WITNESS_CAP} more")
    return CheckResult(name, scope, "fail" if failures else "pass", shown)


def _each_stage(check, stages: range) -> list[str]:
    """Failures of check(n) for every stage n in `stages`, in stage order."""
    return [f for n in stages for f in check(n)]


# -- words ------------------------------------------------------------------


def factor_complexity(d: int, max_n: int) -> list[str]:
    """The fixed point has (d-1)n + 1 factors of each length n <= max_n."""
    return [
        f"n={n}: {complexity(d, n)} != {(d - 1) * n + 1}"
        for n in range(max_n + 1)
        if complexity(d, n) != (d - 1) * n + 1
    ]


def bispecial_oracle(d: int, max_len: int) -> list[str]:
    """The generation rule lists exactly the bispecial factors up to max_len,
    which `words.bispecials` finds from the window classes of each length."""
    gen = bispecials_by_generation(d, max_len)
    brute = [w for n in range(1, max_len + 1) for w in bispecials(d, n)]
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
    """The development of the k-shifted fixed point spells its tail, k <= max_shift;
    it runs one level past the first sigma^a(1) longer than the tail's end."""
    text = fixed_point_prefix(d, max_shift + 50)
    depth = next(a for a, k in enumerate(_power_lengths(d)) if k > max_shift + 50) + 1
    fails = []
    for k in range(max_shift + 1):
        dev = shift_development(d, k, depth)
        got = development_tail_word(d, dev, 50)
        if got != text[k : k + 50]:
            fails.append(f"shift {k}: tail {word_str(got[:12])}... wrong")
    return fails


def measure_snapping(d: int, ms) -> list[str]:
    """Length-m cylinder measures are powers of lambda, certified in integers
    (`words.measure_spectrum`), in the predicted number of classes."""
    fails = []
    for m in ms:
        exponents, failures = measure_spectrum(d, m)
        fails += failures
        classes = len(set(exponents.values()))
        if classes != expected_class_count(d, m):
            fails.append(f"m={m}: {classes} classes != {expected_class_count(d, m)}")
    return fails


def measure_recursion(d: int, max_len: int) -> list[str]:
    """mu(C_u) = lambda * mu(C_sigma(u)) for |u| <= max_len with u not ending
    in d, where sigma maps the occurrences of u exactly onto those of
    sigma(u): on certified exponents, j(sigma(u)) = j(u) + 1."""
    sub = family_substitution(d)
    pairs = [(u, sub(u)) for m in range(1, max_len + 1)
             for u in measure_spectrum(d, m)[0] if u[-1] != d]
    spectra = {n: measure_spectrum(d, n) for n in sorted({len(w) for p in pairs for w in p})}
    fails = [f for _, failures in spectra.values() for f in failures]
    if fails:   # the exponents are not proven
        return fails
    for u, v in pairs:
        ju, jv = spectra[len(u)][0][u], spectra[len(v)][0].get(v)
        if jv != ju + 1:
            fails.append(f"{word_str(u)}: sigma(u) has exponent {jv}, not {ju + 1}")
    return fails


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


def words_suite(d: int) -> list[CheckResult]:
    ms = (1, 2, 3, 4, 5, 7, 11) if d == 3 else (1, 2, 3, 4, 5)
    return [
        _result("factor-complexity", f"d={d}, n<=30", factor_complexity(d, 30)),
        _result("bispecial-oracle", f"d={d}, lengths<=60", bispecial_oracle(d, 60)),
        _result("development-tails", f"d={d}, shifts<=40", development_tails(d, 40)),
        _result("measure-snapping", f"d={d}, m in {ms}", measure_snapping(d, ms)),
        _result("measure-recursion", f"d={d}, |u|<=4", measure_recursion(d, 4)),
        _result("cancellation-probes", f"d={d}, depth<=12", cancellation_probes(d, 12)),
        _result("growth-roots", f"d={d}", growth_roots(d)),
    ]


# -- trees ------------------------------------------------------------------


def _match_spectrum(observed, expected, extras_test) -> list[str]:
    """Greedily pair expected roots with eigenvalues; test the leftovers."""
    pool = list(observed)
    fails = []
    for r in expected:
        best = min(range(len(pool)), key=lambda i: abs(pool[i] - r))
        if abs(pool[best] - r) > _SPECTRUM_TOL:
            fails.append(f"no eigenvalue near {r:.6f}")
        pool.pop(best)
    for z in pool:
        err = extras_test(z)
        if err:
            fails.append(err)
    return fails


def initial_star(d: int) -> list[str]:
    """The rules applied d - 1 times to one 2-colored edge give T_0, a star
    of d edges colored 1..d out of one root (`trees.initial_tree` builds it
    directly); a rule application that `apply` refuses is the witness."""
    ts = family_tree_substitution(d)
    t = ColoredTree(d, [(0, 1, 2)])
    for step in range(1, d):
        try:
            t = ts.apply(t).tree
        except ValueError as exc:
            return [f"step {step}: {exc}"]
    fails = []
    if sorted(t.color.tolist()) != list(range(1, d + 1)):
        fails.append(f"colors {sorted(t.color.tolist())}")
    if (out := int(np.bincount(t.src).max())) != d:
        fails.append(f"root degree {out}")
    return fails


def discerned_stages(d: int, max_stage: int) -> list[str]:
    """Every stage tree up to max_stage is discerned."""
    it = core.shared_scan(d).it
    return _each_stage(
        lambda n: [] if it.tree_at(n).is_discerned() else [f"stage {n} not discerned"],
        range(max_stage + 1),
    )


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


def trees_suite(d: int, max_stage: int) -> list[CheckResult]:
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

    def law(n: int) -> list[str]:
        try:
            real.edge_length_check(n)
        except ValueError as exc:
            return [f"stage {n}: {exc}"]
        return []

    return _each_stage(law, range(max_stage + 1))


def stage_convergence(d: int, max_stage: int) -> list[str]:
    """The gap between realized stages n-1 and n is at most rho^-(n+1), exactly;
    with no stage n >= 1 to compare, the check fails rather than pass empty."""
    real = core.shared_scan(d).real

    def gap(n: int) -> list[str]:
        bound = ExactLength.rho_power(d, -1 - n)
        try:
            got = real.hausdorff_gap(n)
        except ValueError as exc:
            return [f"stage {n}: {exc}"]
        return [f"stage {n}: gap {got.value():.6f} > {bound.value():.6f}"] if bound < got else []

    fails = _each_stage(gap, range(1, max_stage + 1))
    if max_stage < 1:
        fails.append(f"no stage to compare at n<={max_stage}")
    return fails


def realization_suite(d: int, max_stage: int) -> list[CheckResult]:
    scope = f"d={d}, n<={max_stage}"
    return [
        _result("edge-length-law", scope, edge_length_law(d, max_stage)),
        _result("stage-convergence", scope, stage_convergence(d, max_stage)),
    ]


# -- core -------------------------------------------------------------------


def label_inventory(d: int, max_stage: int) -> list[str]:
    """Stage-m branch labels are the suffixes of l_m, for m <= max_stage."""
    scan = core.shared_scan(d)
    fails = _each_stage(scan.check_inventory, range(max_stage + 1))
    if d == 3:
        want = [2, 3, 5, 7, 11][:max_stage]
        counts = [len(scan.inventory_lengths(m)) for m in range(1, len(want) + 1)]
        if counts != want:
            fails.append(f"label counts {counts} != {want}")
    return fails


def label_injectivity(d: int, max_stage: int) -> list[str]:
    """Distinct stage-n labels realize as distinct points: `_scan_stage`
    refuses a label length twice, and path distances at n give distinct
    branch points a path of positive exact length, and their witnesses."""
    scan = core.shared_scan(d)
    return _each_stage(lambda n: scan.decided(scan.check_path_distances, n), range(max_stage + 1))


def approximation_steps(d: int, top: int) -> list[str]:
    """Appending sigma^a(1^-1) to a label moves its point by rho^-a exactly,
    along the writings 0, d, 2d, ... and 1, d + 1, ... up to a <= top."""
    scan = core.shared_scan(d)
    return [f for start in (0, 1) for f in scan.check_approx_steps(list(range(start, top + 1, d)))]


def partition_sequence(d: int, max_stage: int) -> list[str]:
    """The partition sizes m_n read 1, 2, 3, 5, 7, 11 for d = 3, and stage n
    has (d-1) m_n + 1 edges."""
    scan = core.shared_scan(d)
    fails = []
    mseq = [core.determined_partition(d, n) for n in range(6)]
    if d == 3 and mseq != [1, 2, 3, 5, 7, 11]:
        fails.append(f"partition sizes {mseq} != [1, 2, 3, 5, 7, 11]")

    def edge_count(n: int) -> list[str]:
        edges = len(scan.it.tree_at(n).edges)
        want = (d - 1) * core.determined_partition(d, n) + 1
        return [] if edges == want else [f"stage {n}: {edges} edges != {want}"]

    return fails + _each_stage(edge_count, range(max_stage + 1))


def shift_isometries(d: int, max_stage: int) -> list[str]:
    """Letter shifts are exact partial isometries with nearly disjoint domains.

    A domain of fewer than two branch points compares no distance; if every
    letter's domain is like that, the check fails rather than pass empty.
    Each letter's certificate repeats the failures of the premises it
    shares with the others, and each is reported once; a domain point
    without an image is reported as the certificate raises it.
    """
    scan = core.shared_scan(d)
    fails = []
    for a in range(1, d + 1):
        try:
            fails += scan.check_shift_isometry(a, max_stage)
        except ValueError as exc:
            fails.append(str(exc))
        fails += scan.check_shift_conjugacy(a, max_stage)
    fails += scan.check_domain_overlaps(max_stage)
    if all(len(scan.shift_domain(a, max_stage)) < 2 for a in range(1, d + 1)):
        fails.append(f"no shift-domain pair to compare at n<={max_stage}")
    return list(dict.fromkeys(fails))


def path_distances(d: int, max_stage: int) -> list[str]:
    """Realized branch-point distances equal the coded path lengths.

    Stages with fewer than two branch points compare nothing; if every
    stage is like that, the check fails rather than pass empty.  A stage
    keeps every branch point of the one before (substitution recolours
    edges or puts a star on them, and an anchor keeps its degree), so the
    last stage decides.
    """
    fails = label_injectivity(d, max_stage)   # the same per-stage verdicts
    if len(core.shared_scan(d).branch_points(max_stage)) < 2:
        fails.append(f"no branch-point pair to compare at n<={max_stage}")
    return fails


def core_suite(d: int, max_stage: int) -> list[CheckResult]:
    arc_stage = max(0, max_stage + 3 - 2 * d)   # the arcs of n are read at n + 2d - 2
    top = max(max_stage, 2 * d)   # the approximation steps' largest exponent
    scan = core.shared_scan(d)
    scope, stages = f"d={d}, n<={max_stage}", range(max_stage + 1)
    arc_scope = f"d={d}, n<={arc_stage}, stages<={arc_stage + 2 * d - 2}"
    arc_stages = range(arc_stage + 1)
    return [
        _result("label-inventory", f"d={d}, m<={max_stage}", label_inventory(d, max_stage)),
        _result("bispecial-chain", f"d={d}, m<={max_stage}", scan.check_bispecial_match(max_stage)),
        _result("writing-exponents", scope, _each_stage(scan.check_writing_exponents, stages)),
        _result("apparition-chain", scope, _each_stage(scan.check_apparition_chain, stages)),
        _result("branching-neighbor", scope, _each_stage(scan.check_branching_neighbor, stages)),
        _result(
            "address-map-consistency", scope,
            _each_stage(lambda n: scan.decided(scan.check_address_map, n), stages),
        ),
        _result("label-injectivity", scope, label_injectivity(d, max_stage)),
        _result("approximation-steps", f"d={d}, a<={top}", approximation_steps(d, top)),
        _result("partition-sequence", scope, partition_sequence(d, max_stage)),
        _result("initial-arcs", f"d={d}", scan.check_initial_arcs()),
        _result("arc-overlaps", arc_scope, _each_stage(scan.check_arc_overlaps, arc_stages)),
        _result(
            "arc-cylinders", arc_scope,
            _each_stage(lambda n: scan.check_arc_cylinders(n, max_stage), arc_stages),
        ),
        _result(
            "shift-isometries", f"d={d}, letters 1..{d}, n<={max_stage}",
            shift_isometries(d, max_stage),
        ),
        _result("path-distances", scope, path_distances(d, max_stage)),
    ]


# -- rauzy ------------------------------------------------------------------


def tree_image_arcs(max_stage: int, depth: int) -> list[str]:
    """Orbit points on the embedded stage-n tree fall in 2m+1 arc classes."""

    def classes(n: int) -> list[str]:
        arcs = {t for t in rauzy.zeta_cloud(n, depth).tags if t != "-"}
        want = 2 * core.determined_partition(3, n) + 1
        return [] if len(arcs) == want else [f"stage {n}: {len(arcs)} arc classes != {want}"]

    return _each_stage(classes, range(max_stage + 1))


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


def rauzy_suite(d: int) -> list[CheckResult]:
    if d != 3:
        return [_result("planar-projection", f"d={d}", ["planar projection requires d=3"])]
    return [
        _result("projection-bounded", "every prefix; depth 20000", rauzy.check_boundedness()),
        _result("projection-contraction", "every k; integer spectrum", rauzy.check_contraction()),
        _result(
            "cylinder-arc-partition", f"depth {_RAUZY_DEPTH}, m=7 vs stage 4",
            rauzy.check_partition_match(_RAUZY_DEPTH),
        ),
        _result("tree-image-arcs", "n<=2, depth 3000", tree_image_arcs(2, 3000)),
        _result(
            "translate-congruence", f"depth {_RAUZY_DEPTH}, m=7",
            rauzy.check_translate_congruence(_RAUZY_DEPTH),
        ),
        _result("artifact-determinism", "depth 2000", artifact_determinism(2000)),
    ]


# -- entry ------------------------------------------------------------------


def run_suite(suite: str, d: int, max_stage: int | None = None) -> list[CheckResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}, choose from {SUITES}")
    if max_stage is not None and max_stage < 0:
        raise ValueError(f"max_stage must be >= 0, got {max_stage}")
    cap = max_stage if max_stage is not None else max(12 if d == 3 else 10, 2 * d)
    # the deepest stage an audit builds: the address map, the shift isometry
    # and the arcs read one past the cap, the approximation steps one past
    # stage 2d at least, and the stage-0 arcs stage 2d - 2
    check_budget(d, max(cap, 2 * d) + 1)
    out: list[CheckResult] = []
    if suite in ("words", "all"):
        out += words_suite(d)
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
