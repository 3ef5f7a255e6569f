"""Acceptance gate: one test per advertised guarantee, at the stated tolerance.

Run with -v to get one pass/fail line per criterion; each test also prints
its own "criterion NN" line so the gate reads the same under -s.
"""

import time

from treesubst.freegroup import cancellation_report, nielsen_probe, tribonacci_inverse
from treesubst.words import bispecials_by_generation, measure_spectrum
from treesubst import core, rauzy, verify


def _report(num, name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"criterion {num:02d} {name}: {status}")
    assert not failures, f"criterion {num:02d} {name}: " + "; ".join(failures[:5])


def test_c01_factor_complexity():
    failures = []
    t0 = time.monotonic()
    for d in (3, 4, 5):
        failures += verify.factor_complexity(d, 30)
    elapsed = time.monotonic() - t0
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f}s, budget 5s")
    _report(1, "factor complexity (d-1)n+1", failures)


def test_c02_bispecial_factors():
    failures = []
    for d in (3, 4):
        failures += verify.bispecial_oracle(d, 60)
    if [len(b) for b in bispecials_by_generation(3, 10)] != [1, 2, 4, 6, 10]:
        failures.append("d=3 bispecial lengths do not begin 1,2,4,6,10")
    _report(2, "bispecials by generation = brute force", failures)


def test_c03_stage_trees_discerned():
    failures = []
    for d, top in ((3, 12), (4, 10), (5, 10)):
        failures += verify.discerned_stages(d, top)
    _report(3, "every stage tree is discerned", failures)


def test_c04_trunk_words_give_inverse():
    failures = []
    for d in (3, 4, 5, 6):
        failures += verify.trunk_determinism(d)
    _report(4, "trunk words project to the inverse substitution", failures)


def test_c05_exact_edge_lengths():
    failures = []
    for d in (3, 4):
        failures += verify.edge_length_law(d, 10)
    _report(5, "edge lengths are base(color) * rho^-n exactly", failures)


def test_c06_hausdorff_convergence():
    failures = verify.stage_convergence(3, 10)
    _report(6, "stage gap bounded by rho^-(n+1)", failures)


def test_c07_label_inventories():
    failures = []
    for d in (3, 4):
        failures += verify.label_inventory(d, 5)
        scan = core.shared_scan(d)
        for m in range(1, d):
            fresh = scan.inventory_lengths(m) - scan.inventory_lengths(m - 1)
            if len(fresh) != 1:
                failures.append(f"d={d} m={m}: {len(fresh)} new labels, want 1")
    counts = [len(core.shared_scan(3).inventory_lengths(m)) for m in range(1, 6)]
    if counts != [2, 3, 5, 7, 11]:
        failures.append(f"d=3 counts {counts} != [2, 3, 5, 7, 11]")
    _report(7, "branch labels are the suffixes of l_m", failures)


def test_c08_writing_exponents():
    scan = core.shared_scan(3)
    failures = [f for n in range(13) for f in scan.check_writing_exponents(n)]
    _report(8, "writing exponents track the birth stage", failures)


def test_c09_partition_measures():
    failures = []
    seq = [core.determined_partition(3, n) for n in range(6)]
    if seq != [1, 2, 3, 5, 7, 11]:
        failures.append(f"determined lengths {seq} != [1, 2, 3, 5, 7, 11]")
    # the letter measures are lambda^-2, lambda^-3, lambda^-4, certified in integers
    letters, proof = measure_spectrum(3, 1)
    want = {bytes([a]): j for a, j in zip((1, 2, 3), (2, 3, 4))}
    if letters != want:
        failures.append(f"letter measures are {letters}, want {want}")
    failures += proof
    for m, want in ((1, 3), (2, 4), (3, 4), (4, 5), (5, 4), (7, 4), (11, 4)):
        failures += verify.measure_snapping(3, (m,))
        classes = len(set(measure_spectrum(3, m)[0].values()))
        if classes != want:
            failures.append(f"m={m}: {classes} classes, want {want}")
    _report(9, "cylinder measures are powers of lambda", failures)


def test_c10_measure_recursion():
    failures = []
    for d in (3, 4):
        failures += verify.measure_recursion(d, 4)
    _report(10, "measure of C_u vs lambda * C_sigma(u)", failures)


def test_c11_shift_isometries():
    failures = verify.shift_isometries(3, 8)
    _report(11, "letter shifts are exact partial isometries", failures)


def test_c12_path_distance_formula():
    failures = verify.path_distances(3, 8)
    _report(12, "realized distances equal the coded path formula", failures)


def test_c13_matrix_spectra():
    failures = []
    for d in (3, 4, 5, 6):
        failures += verify.growth_roots(d)
        failures += verify.matrix_spectra(d)
    _report(13, "growth matrices carry the two root families", failures)


def test_c14_cancellation_probes():
    failures = []
    flags = cancellation_report(tribonacci_inverse(), [(3,)], 2)[(3,)]
    if flags != [False, True]:
        failures.append(f"tribonacci inverse on c: {flags} != [False, True]")
    flags = cancellation_report(nielsen_probe(), [(1, 3)], 10)[(1, 3)]
    if flags != [True] * 10:
        failures.append(f"probe map on ac: {flags} != all True")
    for d in (3, 4, 5):
        failures += verify.cancellation_probes(d, 12)
    _report(14, "cancellation happens exactly where predicted", failures)


def test_c15_planar_projection():
    failures = []
    failures += rauzy.check_boundedness()
    failures += rauzy.check_partition_match(20_000, 7, 4)
    failures += verify.artifact_determinism(20_000)
    _report(15, "planar projection bounded, partitioned, deterministic", failures)
