"""Checks shown to fail: each row corrupts the data a check reads, never the
check itself, and `run_suite` must then report that check as failing."""

from types import SimpleNamespace

import pytest

from treesubst import core, rauzy, trees, verify, words
from treesubst.algnum import ExactLength
from treesubst.freegroup import tribonacci_inverse
from treesubst.words import measure_spectrum


@pytest.fixture(autouse=True)
def fresh_measures():
    """No certificate computed from patched data outlives its test."""
    yield
    measure_spectrum.cache_clear()


def _bumped(d0, m0):
    """_induced_matrix with one more count at the first entry for (d0, m0)."""
    real = words._induced_matrix

    def bumped(d, m):
        factors, matrix = real(d, m)
        if (d, m) == (d0, m0):
            matrix = matrix.copy()
            matrix[0, 0] += 1
        return factors, matrix

    return bumped


def _measure_input(name, value):
    """Patch an input of the measure certificate and drop what it cached."""
    def corrupt(monkeypatch):
        monkeypatch.setattr(words, name, value)
        measure_spectrum.cache_clear()
    return corrupt


def _drop_last(module, name):
    """Patch module.name to return its real result without the last entry."""
    real = getattr(module, name)
    return lambda monkeypatch: monkeypatch.setattr(module, name, lambda *a: real(*a)[:-1])


def _nudge_root(monkeypatch):
    real = verify.growth_root
    monkeypatch.setattr(verify, "growth_root", lambda d: real(d) + 1e-9)


def _bump_edge_matrix(monkeypatch):
    real = trees.TreeSubstitution.incidence_matrix

    def bumped(self):
        matrix = real(self).copy()
        matrix[0, 0] += 1
        return matrix

    monkeypatch.setattr(trees.TreeSubstitution, "incidence_matrix", bumped)


def _cyclic_rule_1(monkeypatch):
    # 1 -> X -> Y (1), Y -> P1 (4): a color cycle through 1 whose Y has degree 2
    rules = {**trees.family_tree_substitution(3).rules,
             1: trees.RulePattern(1, (("X", "Y", 1), ("Y", "P1", 4)))}
    monkeypatch.setattr(verify, "family_tree_substitution",
                        lambda d: trees.TreeSubstitution(d, rules))


def _undiscerned_stage(monkeypatch):
    # a fresh iteration, never the cached shared scan, whose stage-5 tree has
    # two out-edges of one vertex in one color
    it = trees.TreeIteration(3)
    tree = it.tree_at(5)
    i, j = next((i, j) for i in range(len(tree.src)) for j in range(i + 1, len(tree.src))
                if tree.src[i] == tree.src[j])
    tree.color[j] = tree.color[i]
    monkeypatch.setattr(core, "shared_scan", lambda d: SimpleNamespace(it=it))


def _base_length(color, exponent):
    """A fresh scan, never the cached shared one, whose realization reads
    rho^exponent as the base length of `color`."""
    def corrupt(monkeypatch):
        scan = core.CoreScan(3)
        scan.real.base_lengths[color] = ExactLength.rho_power(3, exponent)
        monkeypatch.setattr(core, "shared_scan", lambda d: scan)
    return corrupt


# suite -> row -> (corruption, the checks of run_suite(suite, 3) that then
# fail, the start of the first failing check's first witness)
_ROWS = {
    "words": {
        # m = 2 is read by both measure checks, m = 6 only by the recursion
        "bumped-sigma-2": (_measure_input("_induced_matrix", _bumped(3, 2)),
                           ["measure-snapping", "measure-recursion"], "m=2: "),
        "bumped-sigma-6": (_measure_input("_induced_matrix", _bumped(3, 6)),
                           ["measure-recursion"], "m=6: "),
        "wrong-lambda": (_measure_input("growth_root", lambda d: 2.0),
                         ["measure-snapping", "measure-recursion"], "m=1: "),
        "dropped-factor-start": (_drop_last(words, "_factor_starts"), ["factor-complexity"], ""),
        "dropped-bispecial": (_drop_last(verify, "bispecials_by_generation"),
                              ["bispecial-oracle"], ""),
        "nudged-root": (_nudge_root, ["growth-roots"], ""),
        "truncated-prefix": (_drop_last(verify, "fixed_point_prefix"), ["development-tails"],
                             "shift 40: tail"),
        "cancelling-inverse": (lambda mp: mp.setattr(verify, "family_inverse",
                                                     lambda d: tribonacci_inverse()),
                               ["cancellation-probes"],
                               "family inverse seed 1: unexpected cancellation"),
    },
    "trees": {
        "bumped-edge-matrix": (_bump_edge_matrix, ["matrix-spectra"],
                               "no eigenvalue near 1.465571"),
        "truncated-trunk": (_drop_last(verify, "p_star"), ["trunk-determinism"],
                            "rule 1: trunk projects to ()"),
        "cyclic-rule-1": (_cyclic_rule_1, ["rule-validation", "initial-star",
                                           "trunk-determinism", "matrix-spectra"],
                          "condition 4: color cycle through 1"),
        "undiscerned-stage": (_undiscerned_stage, ["discerned-stages"], "stage 5 not discerned"),
    },
    "realization": {
        # the star's 2-edge too long: stage 0 breaks the law, and the gap grows
        "long-color-2": (_base_length(2, 1), ["edge-length-law", "stage-convergence"],
                         "stage 0: (0, (0, 2, 2)"),
        # a branch color, first born at stage 1, too short: the gap stays in bound
        "short-color-4": (_base_length(4, -2), ["edge-length-law"], "stage 1: (1, (4, 5, 4)"),
    },
}


def _failing(suite):
    return [r for r in verify.run_suite(suite, 3) if r.status != "pass"]


def _row_fails(monkeypatch, suite, row):
    corrupt, want, witness = _ROWS[suite][row]
    assert _failing(suite) == []   # and the certificates are cached from true data
    corrupt(monkeypatch)
    failing = _failing(suite)
    assert [r.name for r in failing] == want
    assert failing[0].witnesses[0].startswith(witness), failing[0].witnesses


@pytest.mark.parametrize("row", sorted(_ROWS["words"]))
def test_words_check_fails_on_corrupted_data(monkeypatch, row):
    _row_fails(monkeypatch, "words", row)


@pytest.mark.parametrize("row", sorted(_ROWS["trees"]))
def test_trees_check_fails_on_corrupted_data(monkeypatch, row):
    _row_fails(monkeypatch, "trees", row)


@pytest.mark.parametrize("row", sorted(_ROWS["realization"]))
def test_realization_check_fails_on_corrupted_data(monkeypatch, row):
    _row_fails(monkeypatch, "realization", row)


@pytest.mark.parametrize("suite", sorted(_ROWS))
def test_rows_corrupt_every_check_of_the_suite(suite):
    corrupted = {name for _, want, _ in _ROWS[suite].values() for name in want}
    assert corrupted == {r.name for r in verify.run_suite(suite, 3)}


def test_certificate_refuses_a_bumped_matrix_entry(monkeypatch):
    _measure_input("_induced_matrix", _bumped(3, 2))(monkeypatch)
    failures = measure_spectrum(3, 2)[1]
    assert failures and all(f.startswith("m=2: ") for f in failures)
    assert measure_spectrum(3, 3)[1] == ()


def test_certificate_refuses_a_wrong_lambda(monkeypatch):
    # base 2 proposes lambda^-1, lambda^-2, lambda^-2 for the letters, not
    # lambda^-2, lambda^-3, lambda^-4: the rows of 1 and 3 and the sum fail
    _measure_input("growth_root", lambda d: 2.0)(monkeypatch)
    assert measure_spectrum(3, 1) == ({b"\x01": 1, b"\x02": 2, b"\x03": 2}, (
        "m=1: (M v)_u != lambda v_u at u = 1",
        "m=1: (M v)_u != lambda v_u at u = 3",
        "m=1: the 3 measures lambda^-j do not sum to 1",
    ))


def test_translate_congruence_reports_a_failed_certificate(monkeypatch):
    # unproven classes are not paired: the m = 7 failures are the witnesses
    _measure_input("_induced_matrix", _bumped(3, rauzy.CONGRUENCE_M))(monkeypatch)
    failures = rauzy.check_translate_congruence(2000)
    assert failures and failures == list(measure_spectrum(3, rauzy.CONGRUENCE_M)[1])
