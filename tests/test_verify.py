import hashlib
import json
import random

import pytest

from conftest import char2a_oracle, commutator_oracle, first_uncovered_oracle
from conjlab.chains import ChainSpec, GroupType, form_matrix, random_sym_or_skew
from conjlab.coordpoly import PolyContext, PolyGrid, symbolic_matrix
from conjlab.fields import GF, QQ
from conjlab.matrix import Matrix, inverse, random_matrix, rank, rank_and_rref
from conjlab.pencil import BudgetExceeded
import conjlab.verify as verify_mod
from conjlab.verify import (
    _char2a_reps,
    _char2a_units,
    _commutator_reps,
    _commutator_units,
    _digits,
    _first_uncovered,
    _run,
    _shift_matrix,
    default_suite_config,
    h_symbolic,
    run_one,
    run_suite,
    verify_char2,
    verify_commutator_scalar,
    verify_conjugation_identity,
    verify_equivariance,
    verify_rank_bound_samples,
)

G2, G3, G7 = GF(2), GF(3), GF(7)


def _missing(report):
    return report.witnesses[0]["missing_target"] if report.witnesses else None


def test_char2a_small():
    for f, n in ((G3, 2), (G3, 1), (GF(5), 1), (G7, 1)):
        r = verify_char2("a", f, n)
        assert (r.verdict, _missing(r)) == ("pass", char2a_oracle(f, n))
    with pytest.raises(ValueError):
        verify_char2("a", G2, 2)


def test_char2a_sampled():
    r = verify_char2("a", G3, 2, mode="sample", trials=500, seed=1)
    assert r.verdict == "statistical-pass"
    # recorded from the former tuple-arithmetic sampler: the same draws and images
    assert r.witnesses[0]["coverage"] == 1.0
    r = verify_char2("a", GF(5), 2, mode="sample", trials=300, seed=0)
    assert r.witnesses[0]["coverage"] == 0.3632


def test_char2a_sampling_needs_trials():
    with pytest.raises(ValueError):
        verify_char2("a", G3, 2, mode="sample", trials=0)


def test_sampled_verifiers_need_trials():
    # zero samples would report a pass that nothing was checked for
    ch = ChainSpec.make("A", 2, [(1, 1, 1)], [(1, 1, 1)])
    with pytest.raises(ValueError, match="trials"):
        verify_equivariance(ch, trials=0, field=G7)
    with pytest.raises(ValueError, match="trials"):
        verify_rank_bound_samples("sp", 4, 1, trials=0, field=G7)


def test_verify_sizes_over_budget_are_refused_before_building(monkeypatch):
    # char2b charges the (n^2 - 1) x 2n^2 entries of its derivative, n = 26
    # the largest under 10^6; the sampled verifiers charge trials N^3 for the
    # largest N x N matrix a trial draws.  Each refuses before any work: the
    # builders would raise if they were reached.
    def unreached(*args, **kwargs):
        raise AssertionError("built past the budget")
    for name in ("char2_derivative", "random_matrix", "random_group_element", "_h_form_exposes",
                 "_form_exposes"):
        monkeypatch.setattr(verify_mod, name, unreached)
    with pytest.raises(BudgetExceeded, match="1061424"):
        verify_char2("b", G2, 27)
    with pytest.raises(BudgetExceeded, match="N = 16"):
        verify_rank_bound_samples("sp", 8, 1, trials=245, field=G7)  # 245 * 16^3 > 10^6
    with pytest.raises(BudgetExceeded, match="N = 15"):
        verify_rank_bound_samples("b", 2, 1, trials=297, field=G7)  # 297 * 15^3 > 10^6
    ch = ChainSpec.make("A", 2, [(1, 1, 1)], [(1, 1, 1)])  # level 2 has N = 5
    with pytest.raises(BudgetExceeded, match="N = 5"):
        verify_equivariance(ch, trials=8001, field=G7)


def test_rankbound_b_needs_odd_characteristic():
    # the samples are halved, and 2 has no inverse in characteristic 2
    with pytest.raises(ValueError, match="characteristic"):
        verify_rank_bound_samples("b", 1, 0, trials=20, field=G2)


def test_char2a_rejects_unknown_mode():
    # a mistyped mode is an error, not a sampled run, with or without trials
    for mode in ("sampled", "enumerat"):
        for extra in ({}, {"trials": 5}):
            with pytest.raises(ValueError, match="mode"):
                run_one({"lemma": "char2a", "field": "gf:3", "n": 2, "mode": mode, **extra})


def test_coverage_budget():
    with pytest.raises(BudgetExceeded):
        verify_char2("a", G3, 3)
    with pytest.raises(BudgetExceeded):
        verify_commutator_scalar(G3, 3)


def test_unit_images_match_matrix_products():
    rng = random.Random(5)
    for p, n in ((3, 2), (5, 3), (2, 3)):
        f = GF(p)
        for _ in range(4):
            A = random_matrix(n, n, f, rng)
            sym, comm = _char2a_units(A.entries, n, p), _commutator_units(A.entries, n, p)
            for i in range(n):
                for j in range(n):
                    E = Matrix.basis(f, n, i, j)
                    assert sym[i * n + j] == (A @ E + A.transpose() @ E.transpose()).entries
                    assert comm[i * n + j] == (A @ E - E @ A).entries
            assert comm[-1] == Matrix.identity(f, n).entries


def test_first_uncovered_scan():
    # codes are sum of v[k] * p^k; F_3^2 is the union of its four lines
    lines = [[(1, 0)], [(0, 1)], [(1, 1)], [(1, 2)]]
    assert _first_uncovered(3, 2, []) == 0
    assert _first_uncovered(3, 2, lines[:2]) == 4      # (1, 1)
    assert _first_uncovered(3, 2, lines[:3]) == 5      # (2, 1)
    assert _first_uncovered(3, 2, lines) == -1
    # a plane of F_2^3 given by a basis that is not reduced: {0, 3, 5, 6}
    plane = [(1, 1, 0), (0, 1, 1)]
    assert _first_uncovered(2, 3, [plane]) == 1        # (1, 0, 0)
    assert _first_uncovered(2, 3, [plane, [(1, 0, 0)]]) == 2


def test_first_uncovered_matches_tuple_oracle():
    # random span lists, mostly of bases that are not reduced
    rng = random.Random(7)
    cases = [(2, dim) for dim in range(1, 10)] + [(p, dim) for p in (3, 5, 7) for dim in range(1, 5)]
    for p, dim in cases:
        for _ in range(6):
            bases = [[tuple(rng.randrange(p) for _ in range(dim))
                      for _ in range(rng.randint(0, dim - 1 if dim > 3 else dim))]
                     for _ in range(rng.randint(0, 5))]
            assert _first_uncovered(p, dim, bases) == first_uncovered_oracle(p, dim, bases)
    # edge inputs: no span, a basis of zero rows, zero and duplicate rows,
    # entries outside range(p)
    for p, dim in ((2, 3), (3, 2), (5, 2), (7, 1)):
        u = tuple(int(k == 0) for k in range(dim))
        w = tuple(int(k == dim - 1) for k in range(dim))
        for bases in ([], [[]], [[], []], [[(0,) * dim]], [[u, u]], [[u], [u, u], [w, u, w]],
                      [[tuple(p + 1 for _ in range(dim))]], [[tuple(-1 for _ in range(dim)), w]]):
            assert _first_uncovered(p, dim, bases) == first_uncovered_oracle(p, dim, bases)


def _unit_rref(units, code, p, n):
    gens = units(_digits(code, p, n * n), n, p)
    return rank_and_rref(Matrix(GF(p), len(gens), n * n, sum(gens, ()))).rref


def test_orbit_representatives_keep_the_span():
    # every code has exactly one representative in its orbit (X -> cX + dI
    # for commutator, A -> cA for char2a), with the same reduced unit images
    for units, reps, p, n in ((_commutator_units, _commutator_reps, 2, 1),
                              (_commutator_units, _commutator_reps, 2, 2),
                              (_commutator_units, _commutator_reps, 2, 3),
                              (_commutator_units, _commutator_reps, 3, 1),
                              (_commutator_units, _commutator_reps, 3, 2),
                              (_char2a_units, _char2a_reps, 3, 1),
                              (_char2a_units, _char2a_reps, 3, 2)):
        dim = n * n
        rep_codes = reps(p, dim)
        assert len(set(rep_codes)) == len(rep_codes)
        shifts = range(p) if units is _commutator_units else (0,)
        for code in range(p ** dim):
            A = _digits(code, p, dim)
            orbit = {sum((c * a + d * (k % (n + 1) == 0)) % p * p ** k for k, a in enumerate(A))
                     for c in range(1, p) for d in shifts}
            (rep,) = orbit & set(rep_codes)
            assert _unit_rref(units, code, p, n) == _unit_rref(units, rep, p, n), (p, n, code)


def test_coverage_reports_match_the_loop_over_every_code(monkeypatch):
    # the scan over orbit representatives with packed marking against the
    # loop over every code with tuple marking: whole reports but ms
    cases = ([("char2a", p, n) for p in (3, 5, 7) for n in (1, 2)]
             + [("commutator", 2, m) for m in (1, 2, 3)] + [("commutator", 3, m) for m in (1, 2)]
             + [("commutator", p, 2) for p in (5, 7)])

    def run(lemma, p, n):
        f = GF(p)
        r = verify_char2("a", f, n) if lemma == "char2a" else verify_commutator_scalar(f, n)
        got = r.to_json()
        assert got.pop("ms") >= 0
        return got

    reduced = {case: run(*case) for case in cases}
    every = lambda p, dim: range(p ** dim)
    monkeypatch.setattr(verify_mod, "_char2a_reps", every)
    monkeypatch.setattr(verify_mod, "_commutator_reps", every)
    monkeypatch.setattr(verify_mod, "_first_uncovered", first_uncovered_oracle)
    for case in cases:
        assert run(*case) == reduced[case], case
    assert reduced[("commutator", 2, 2)]["verdict"] == "fail"


def test_char2b_rank_values():
    r = verify_char2("b", G2, 3)
    assert r.verdict == "pass"
    # derivative rank must equal n^2 - 1 = 8; a failure would carry it
    assert not r.witnesses


def test_commutator():
    for f, m, verdict in ((G3, 2, "pass"), (G2, 2, "fail"), (G2, 3, "pass"), (G2, 1, "pass"),
                          (G3, 1, "pass"), (GF(5), 1, "pass")):
        r = verify_commutator_scalar(f, m)
        assert (r.verdict, _missing(r)) == (verdict, commutator_oracle(f, m))
    # over GF(2) at m = 2 every image has trace 2*lambda = 0, so trace-1
    # targets are unreachable; the verifier reports the witness honestly
    assert _missing(verify_commutator_scalar(G2, 2)) == [1, 0, 0, 0]


def test_conjugation_cases_pass():
    for case in ("2", "3a", "4a", "C", "D", "B1", "B2"):
        r = verify_conjugation_identity(case)
        assert r.verdict == "pass", (case, r.witnesses)


# the witnesses of each tampered case: a drift in a formula, a tag or the
# entry order of an identity shows here.  Cases 2 and 4a flip the sign of the
# shear term of P'11, as 3a does.
TAMPER_WITNESSES = {
    "2": [
        ["P'11", "1", 0, 0, "p[1,1] + p[4,1]", "p[1,1] - p[4,1]"],
        ["P'11", "2", 0, 0, "p[1,1] + 2*p[4,1]", "p[1,1] - 2*p[4,1]"],
        ["P'11", "3", 0, 0, "p[1,1] + 3*p[4,1]", "p[1,1] - 3*p[4,1]"],
    ],
    "4a": [
        ["P'11", "1", 0, 0, "p[1,1] + p[2,1]", "p[1,1] - p[2,1]"],
        ["P'11", "2", 0, 0, "p[1,1] + 2*p[2,1]", "p[1,1] - 2*p[2,1]"],
        ["P'11", "3", 0, 0, "p[1,1] + 3*p[2,1]", "p[1,1] - 3*p[2,1]"],
    ],
    "3a": [
        ["P'11", "1", 0, 0, "p[1,1] + p[3,1]", "p[1,1] - p[3,1]"],
        ["P'11", "2", 0, 0, "p[1,1] + 2*p[3,1]", "p[1,1] - 2*p[3,1]"],
        ["P'11", "3", 0, 0, "p[1,1] + 3*p[3,1]", "p[1,1] - 3*p[3,1]"],
    ],
    "C": [
        ["Q'11", "1", 0, 0, "-2*p[1,2] + q[1,1] - r[2,2]", "-2*p[1,2] + q[1,1]"],
        ["Q'11", "2", 0, 0, "-4*p[1,2] + q[1,1] - 4*r[2,2]", "-4*p[1,2] + q[1,1] - 2*r[2,2]"],
        ["Q'11", "3", 0, 0, "-6*p[1,2] + q[1,1] - 9*r[2,2]", "-6*p[1,2] + q[1,1] - 6*r[2,2]"],
    ],
    "D": [
        ["Q'11", "1", 0, 1,
         "p[1,4] - p[2,3] + q[1,2] + r[3,4]",
         "p[1,4] - p[2,3] + q[1,2] + 2*r[3,4]"],
        ["Q'11", "1", 1, 0,
         "-p[1,4] + p[2,3] - q[1,2] - r[3,4]",
         "-p[1,4] + p[2,3] - q[1,2] - 2*r[3,4]"],
        ["Q'11", "2", 0, 1,
         "2*p[1,4] - 2*p[2,3] + q[1,2] + 4*r[3,4]",
         "2*p[1,4] - 2*p[2,3] + q[1,2] + 6*r[3,4]"],
        ["Q'11", "2", 1, 0,
         "-2*p[1,4] + 2*p[2,3] - q[1,2] - 4*r[3,4]",
         "-2*p[1,4] + 2*p[2,3] - q[1,2] - 6*r[3,4]"],
        ["Q'11", "3", 0, 1,
         "3*p[1,4] - 3*p[2,3] + q[1,2] + 9*r[3,4]",
         "3*p[1,4] - 3*p[2,3] + q[1,2] + 12*r[3,4]"],
        ["Q'11", "3", 1, 0,
         "-3*p[1,4] + 3*p[2,3] - q[1,2] - 9*r[3,4]",
         "-3*p[1,4] + 3*p[2,3] - q[1,2] - 12*r[3,4]"],
    ],
    "B1": [
        ["antisumQ", "1", 0, 1,
         "p[1,2] + p[1,15] - p[2,1] - p[2,14] + p[3,13] - p[5,6] + p[6,5] - p[10,6] + p[11,5]",
         "p[1,2] + p[1,15] - p[2,1] - p[2,14] + p[3,13] - p[5,6] + p[6,5] + p[10,6] - p[11,5]"],
        ["antisumQ", "1", 1, 0,
         "-p[1,2] - p[1,15] + p[2,1] + p[2,14] - p[3,13] + p[5,6] - p[6,5] + p[10,6] - p[11,5]",
         "-p[1,2] - p[1,15] + p[2,1] + p[2,14] - p[3,13] + p[5,6] - p[6,5] - p[10,6] + p[11,5]"],
        ["antisumQ", "2", 0, 1,
         "2*p[1,2] + p[1,15] - 2*p[2,1] - p[2,14] + p[3,13] - 2*p[5,6] + 2*p[6,5] - 4*p[10,6] + 4*p[11,5]",
         "2*p[1,2] + p[1,15] - 2*p[2,1] - p[2,14] + p[3,13] - 2*p[5,6] + 2*p[6,5] + 4*p[10,6] - 4*p[11,5]"],
        ["antisumQ", "2", 1, 0,
         "-2*p[1,2] - p[1,15] + 2*p[2,1] + p[2,14] - p[3,13] + 2*p[5,6] - 2*p[6,5] + 4*p[10,6] - 4*p[11,5]",
         "-2*p[1,2] - p[1,15] + 2*p[2,1] + p[2,14] - p[3,13] + 2*p[5,6] - 2*p[6,5] - 4*p[10,6] + 4*p[11,5]"],
        ["antisumQ", "3", 0, 1,
         "3*p[1,2] + p[1,15] - 3*p[2,1] - p[2,14] + p[3,13] - 3*p[5,6] + 3*p[6,5] - 9*p[10,6] + 9*p[11,5]",
         "3*p[1,2] + p[1,15] - 3*p[2,1] - p[2,14] + p[3,13] - 3*p[5,6] + 3*p[6,5] + 9*p[10,6] - 9*p[11,5]"],
        ["antisumQ", "3", 1, 0,
         "-3*p[1,2] - p[1,15] + 3*p[2,1] + p[2,14] - p[3,13] + 3*p[5,6] - 3*p[6,5] + 9*p[10,6] - 9*p[11,5]",
         "-3*p[1,2] - p[1,15] + 3*p[2,1] + p[2,14] - p[3,13] + 3*p[5,6] - 3*p[6,5] - 9*p[10,6] + 9*p[11,5]"],
    ],
    "B2": [
        ["W'", "0", 0, 0, "p[7,4]", "2*p[7,4]"],
        ["W'", "0", 0, 1, "p[7,5]", "2*p[7,5]"],
        ["W'", "0", 0, 2, "p[7,6]", "2*p[7,6]"],
        ["W'", "0", 1, 0, "p[8,4]", "2*p[8,4]"],
        ["W'", "0", 1, 1, "p[8,5]", "2*p[8,5]"],
        ["W'", "0", 1, 2, "p[8,6]", "2*p[8,6]"],
        ["W'", "0", 2, 0, "p[9,4]", "2*p[9,4]"],
        ["W'", "0", 2, 1, "p[9,5]", "2*p[9,5]"],
    ],
}


def test_conjugation_tamper_fails_with_witness():
    for case in ("2", "3a", "4a", "C", "D", "B1", "B2"):
        r = verify_conjugation_identity(case, tamper=True)
        assert r.verdict == "fail" and r.witnesses == TAMPER_WITNESSES[case], case


def test_false_identity_fails_in_both_runs():
    # Y = X is false for a nontrivial shear: the symbolic grid and the integer
    # matrix both report it, entry by entry, at every lam but 0
    n = 2
    X = symbolic_matrix(PolyContext("gl", n), QQ())
    M = Matrix.from_rows(QQ(), [[1, 2], [3, 5]])
    element = lambda lam: _shift_matrix(n, [(0, 1, 1)], lam)
    same = lambda X, Y, lam, tamper: [("Y=X", Y.block(0, 1, 0, 2), X.block(0, 1, 0, 2))]
    sym, gen, conj = _run(same, X, M, element, False)
    assert sym == [("Y=X", lam, 0, j, got, "p[1,1]" if j == 0 else "p[1,2]")
                   for lam, j, got in ((1, 0, "p[1,1] + p[2,1]"),
                                       (1, 1, "-p[1,1] + p[1,2] - p[2,1] + p[2,2]"),
                                       (2, 0, "p[1,1] + 2*p[2,1]"),
                                       (2, 1, "-2*p[1,1] + p[1,2] - 4*p[2,1] + 2*p[2,2]"),
                                       (3, 0, "p[1,1] + 3*p[2,1]"),
                                       (3, 1, "-3*p[1,1] + p[1,2] - 9*p[2,1] + 3*p[2,2]"))]
    # (I + lam E12) M (I - lam E12), first row: (1 + 3 lam, 2 + 4 lam - 3 lam^2)
    assert [w[:5] for w in gen] == [("generic", "Y=X", lam, 0, j)
                                    for lam in (1, 2, 3) for j in (0, 1)]
    assert gen[0][5:] == ("4", "1") and gen[1][5:] == ("3", "2")
    assert [lam for lam, _ in conj] == [0, 1, 2, 3]


def test_h_symbolic_satisfies_algebra():
    """The H-form grid lies in the algebra and has L(L-1)/2 = dim o_L
    distinct variables, L = l(2n + 1) its size."""
    from conjlab.verify import _h_check_algebra
    for n, l in ((1, 3), (2, 3), (1, 5)):
        X, L = h_symbolic(n, l), l * (2 * n + 1)
        assert (X.rows, X.cols) == (L, L)
        assert _h_check_algebra(n, l, X) == []
        assert len(set().union(*(e.variables() for row in X.polys for e in row))) == L * (L - 1) // 2


def test_h_check_algebra_reports_a_perturbed_entry():
    # doubling X[0][1] = p[1,2] adds p[1,2] E_01 to X; S = X H + (X H)^T then
    # gains p[1,2] at (0, 7) and (7, 0), since H maps index 1 to index 7
    from conjlab.verify import _h_check_algebra
    X = h_symbolic(1, 3)
    polys = [row[:] for row in X.polys]
    polys[0][1] = polys[0][1] + polys[0][1]
    assert _h_check_algebra(1, 3, PolyGrid(polys)) == [(0, 7, "p[1,2]"), (7, 0, "p[1,2]")]


def test_equivariance():
    ch = ChainSpec.make("A", 2, [(1, 1, 1)], [(1, 1, 1)])
    assert verify_equivariance(ch, trials=30, field=G7, seed=0).verdict == "pass"
    chb = ChainSpec.make("B", 1, [(3, 0, 2)], [(3, 0, 2)])
    assert verify_equivariance(chb, trials=10, field=G7, seed=0).verdict == "pass"


def test_rank_bound_spec_example():
    # block pattern from the statistical search: R-block zero, Q-block rank 2
    field = G7
    n, m = 8, 1
    Q = Matrix.zeros(field, n)
    ent = [[0] * n for _ in range(n)]
    ent[0][0], ent[0][1], ent[1][0], ent[1][1] = 1, 2, 2, 5
    Q = Matrix.from_rows(field, ent)
    P = Matrix.zeros(field, n)
    M = Matrix.from_blocks([[P, Q], [Matrix.zeros(field, n), -P.transpose()]])
    assert rank(Q) == 2
    I = Matrix.identity(field, n)
    swap = Matrix.from_blocks([[Matrix.zeros(field, n), I],
                               [I.scale(field.neg(field.one)), Matrix.zeros(field, n)]])
    conj = swap @ M @ inverse(swap)
    assert rank(conj.block(n, 2 * n, 0, n)) == 2 > m


def test_rank_bound_verifiers():
    for lemma, n in (("sp", 8), ("od", 8), ("b", 2)):
        r = verify_rank_bound_samples(lemma, n, 1, trials=8, field=G7, seed=0)
        assert r.verdict == "statistical-pass"
        assert r.witnesses[0]["witness_rate"] >= 0.95


@pytest.mark.parametrize("letter, skew, s", [("C", False, -1), ("D", True, 1)])
def test_form_conjugate_exposes_q(letter, skew, s):
    # J M J^-1 = [[-P^T, sR], [sQ, P]] for J = [[0, I], [sI, 0]], so the form
    # alone exposes rank Q in the lower-left block
    rng = random.Random(5)
    n = 4
    J = form_matrix(G7, GroupType(letter, n))
    for _ in range(3):
        P = random_matrix(n, n, G7, rng)
        Q, R = (random_sym_or_skew(G7, n, rng, skew) for _ in range(2))
        M = Matrix.from_blocks([[P, Q], [R, -P.transpose()]])
        conj = J @ M @ inverse(J)
        assert conj == Matrix.from_blocks([[-P.transpose(), R.scale(s)], [Q.scale(s), P]])
        assert conj.block(n, 2 * n, 0, n) == Q.scale(s)


@pytest.mark.parametrize("lemma, n, m, trials", [("sp", 8, 1, 20), ("od", 8, 1, 20),
                                                 ("b", 2, 1, 10)])
def test_rank_bound_reports_pinned(lemma, n, m, trials):
    # the default suite's rank-bound entries over GF(7), seeds 0-2
    for seed in range(3):
        r = verify_rank_bound_samples(lemma, n, m, trials=trials, seed=seed, field=G7)
        assert r.to_json() | {"ms": 0} == {
            "lemma": f"rankbound-{lemma}",
            "params": {"lemma": lemma, "n": n, "m": m, "trials": trials, "seed": seed,
                       "field": "gf:7"},
            "verdict": "statistical-pass",
            "witness": [{"witness_rate": 1.0, "misses": []}],
            "ms": 0}


@pytest.mark.parametrize("lemma", ["sp", "od"])
def test_rank_bound_fails_with_a_wrong_form(monkeypatch, lemma):
    # with J replaced by the identity the exposed block is R, not sQ; R has
    # rank above the bound as often as Q does, so only the block check fails
    monkeypatch.setattr(verify_mod, "form_matrix",
                        lambda field, gt: Matrix.identity(field, gt.ambient))
    r = verify_rank_bound_samples(lemma, 8, 1, trials=20, seed=0, field=G7)
    assert r.verdict == "fail"
    assert r.witnesses[0]["witness_rate"] == 0.0
    assert r.witnesses[0]["misses"] == [{"trial": t} for t in range(5)]


@pytest.mark.parametrize("lemma, n, m", [
    ("sp", 1, 1), ("sp", 3, 3), ("sp", 2, 5),
    ("od", 3, 1), ("od", 4, 2), ("od", 1, 0),
    ("b", 1, 2), ("b", 2, 6),
])
def test_rank_bound_that_no_sample_exceeds_is_refused(lemma, n, m):
    # the sampled block is symmetric n x n (sp: rank <= n), skew n x n
    # (od: rank <= 2 floor(n/2) against the bound 2m) or skew 3n x 3n
    # (b: rank <= 2 floor(3n/2)); the search would redraw forever
    with pytest.raises(ValueError, match="never exceeds the bound"):
        verify_rank_bound_samples(lemma, n, m, trials=1, field=G7)


@pytest.mark.parametrize("lemma, n, m", [("sp", 3, 2), ("od", 5, 1), ("b", 1, 1)])
def test_rank_bound_just_below_the_largest_rank_runs(lemma, n, m):
    r = verify_rank_bound_samples(lemma, n, m, trials=2, field=G7, seed=0)
    assert r.verdict == "statistical-pass"


def test_od_zero_is_vacuous():
    # the zero matrix never violates the bound; the sampler skips it by
    # construction, so just check the predicate directly
    field = G7
    n = 4
    M = Matrix.zeros(field, 2 * n)
    assert rank(M.block(0, n, n, 2 * n)) == 0


def test_reports_are_deterministic():
    a = verify_rank_bound_samples("sp", 8, 1, trials=5, field=G7, seed=3)
    b = verify_rank_bound_samples("sp", 8, 1, trials=5, field=G7, seed=3)
    assert (a.lemma, a.params, a.verdict, a.witnesses) == \
        (b.lemma, b.params, b.verdict, b.witnesses)
    c = verify_char2("b", G2, 4)
    d = verify_char2("b", G2, 4)
    assert (c.verdict, c.witnesses) == (d.verdict, d.witnesses)


def test_run_suite_empty_and_entries():
    assert run_suite([], seed=0) == []
    r = run_one({"lemma": "char2b", "n": 3}, seed=0)
    assert r.verdict == "pass"
    with pytest.raises(ValueError):
        run_one({"lemma": "nope"}, seed=0)


def test_default_config_ids_resolve():
    for entry in default_suite_config():
        assert isinstance(entry["lemma"], str)


def test_default_suite_reports_pinned():
    # every verdict and witness of the default suite at seeds 0 and 1, the
    # timing field dropped, hashed as recorded before the GF(p) int kernels
    docs = []
    for seed in (0, 1):
        for entry in default_suite_config():
            doc = run_one(entry, seed).to_json()
            del doc["ms"]
            docs.append(doc)
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    assert digest == "6628318f0857950546ec091d0d5a57724251aeef480d4f0ce11a5ab90bd2aba5"
