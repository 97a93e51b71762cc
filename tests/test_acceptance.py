"""Acceptance suite: one test and one printed verdict line per criterion.

Every comparison is exact; there are no tolerances anywhere.  Each test
prints ``CRITERION k: PASS|FAIL -- summary`` before asserting, so the
verdict line survives into the report even when the assertion trips.
"""

import math

from cactus_tableaux import (
    Tableau,
    bounded_promotion,
    cactus_act,
    character_table,
    content,
    dual_reflect,
    enumerate_partitions,
    enumerate_ssyt,
    evacuation,
    fold_map,
    from_pattern,
    generated_group_order,
    hook_length_dim,
    is_hook,
    jdt_all_rectifications,
    jdt_rectify,
    kostka_vector,
    promotion,
    strip_swap,
    to_pattern,
    verify_fold_equivariance,
    verify_main_theorem,
    verify_two_one_case,
)
from cactus_tableaux.gt_patterns import bk_tau
from cactus_tableaux.group_actions import (
    CactusWord,
    generator_permutation,
    parse_bk_word,
    word_perm,
)
from cactus_tableaux.shapes import Interval, Partition, Permutation
from cactus_tableaux.tableaux import syt_tuple
from cactus_tableaux.verify import (
    check_bk_relations,
    check_cactus_defining,
    check_pq_promotion,
    check_reduced_cactus,
    check_star_relation,
    check_star_sixth,
    check_xi_relations,
)

from helpers import character_table_oracle, skew_fillings, subpartitions


def verdict(number: int, ok: bool, summary: str) -> None:
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} -- {summary}")


def sweep_shapes(max_size: int):
    for size in range(1, max_size + 1):
        yield from enumerate_partitions(size)


def test_criterion_01_worked_examples():
    checks = []

    skew = Tableau(rows=((1, 2, 2), (2, 4, 4, 5), (2, 3)), inner=(2, 1))
    checks.append(jdt_rectify(skew) == Tableau(((1, 2, 2, 2, 5), (2, 4, 4), (3,))))

    T = Tableau(((1, 1, 2, 3), (2, 2, 3), (4, 4), (5,)))
    checks.append(promotion(T, 5) == Tableau(((1, 1, 1, 2), (2, 3, 5), (3, 5), (4,))))

    s1 = bounded_promotion(T, 5)
    s2 = bounded_promotion(s1, 4)
    s3 = bounded_promotion(s2, 3)
    checks.append(s1 == Tableau(((1, 1, 1, 2), (2, 3, 5), (3, 5), (4,))))
    checks.append(s2 == Tableau(((1, 1, 4, 4), (2, 2, 5), (3, 5), (4,))))
    checks.append(s3 == Tableau(((1, 1, 4, 4), (2, 3, 5), (3, 5), (4,))))

    delta_in = Tableau(((1, 2, 3, 4), (5, 6), (7,)))
    checks.append(dual_reflect(delta_in) == Tableau(((1, 5, 7), (2, 6), (3,), (4,))))

    fig = Tableau(
        (
            (1, 1, 1, 1, 1, 1, 4, 4, 4, 5, 5, 5),
            (2, 2, 2, 2, 4, 5, 5, 5),
            (3, 4, 4, 4),
            (5, 5, 5),
        )
    )
    swapped = Tableau(
        (
            (1, 1, 1, 1, 1, 1, 4, 4, 4, 4, 4, 5),
            (2, 2, 2, 2, 4, 5, 5, 5),
            (3, 4, 4, 5),
            (4, 5, 5),
        )
    )
    checks.append(strip_swap(fig, 4) == swapped)

    w = parse_bk_word("t3 t4", 5) ** 3
    out = Tableau(((1, 3, 4), (2, 5)))
    for k in reversed(w.expand()):
        out = strip_swap(out, k)
    checks.append(out == Tableau(((1, 3, 5), (2, 4))))

    ok = all(checks)
    verdict(1, ok, "six cited worked examples reproduced bit-exactly")
    assert ok, checks


def test_criterion_02_relation_families():
    failures = []
    for n in range(2, 6):
        for lam in sweep_shapes(6):
            if len(lam) > n:
                continue
            for checker in (check_cactus_defining, check_xi_relations, check_bk_relations):
                report = checker(n, tuple(lam))
                if report.status != "PASS":
                    failures.append(report.to_json())
    ok = not failures
    verdict(2, ok, "cactus, interval-involution and t/p/q relations on all SSYT, |shape| <= 6, alphabet <= 5")
    assert ok, failures[:3]


def test_criterion_03_pq_acts_as_promotion_and_evacuation():
    failures = []
    for n in range(2, 6):
        for lam in sweep_shapes(6):
            if len(lam) > n:
                continue
            report = check_pq_promotion(n, tuple(lam))
            if report.status != "PASS":
                failures.append(report.to_json())
    ok = not failures
    verdict(3, ok, "p_k = bounded promotion and q_k = partial evacuation on all SSYT, |shape| <= 6")
    assert ok, failures[:3]


def test_criterion_04_reduced_cactus_relations():
    failures = []
    for n in range(2, 8):
        for lam in enumerate_partitions(n):
            report = check_reduced_cactus(n, tuple(lam))
            if report.status != "PASS":
                failures.append(report.to_json())
    ok = not failures
    verdict(4, ok, "braid-like quotient words act trivially on all SYT, n <= 7")
    assert ok, failures[:3]


def test_criterion_05_star_relation_iff():
    sixth_failures = []
    iff_mismatches = []
    for n in range(4, 7):
        for lam in enumerate_partitions(n):
            if check_star_sixth(n, tuple(lam)).status != "PASS":
                sixth_failures.append((n, tuple(lam)))
            held = check_star_relation(n, tuple(lam)).status == "PASS"
            predicted = is_hook(lam) or lam == Partition((2, 2))
            if held != predicted:
                iff_mismatches.append((tuple(lam), {"held": held, "predicted": predicted}))
    ok = not sixth_failures and not iff_mismatches
    verdict(5, ok, "cube of t_k t_{k+1} holds exactly on hooks and (2,2); sixth power everywhere")
    assert ok, {"sixth": sixth_failures, "iff": iff_mismatches}


def test_criterion_06_permutation_images_and_group_orders():
    checks = []
    lam = Partition((3, 1, 1))
    t2 = generator_permutation(lam, parse_bk_word("t2", 5), "paper")
    t3 = generator_permutation(lam, parse_bk_word("t3", 5), "paper")
    t4 = generator_permutation(lam, parse_bk_word("t4", 5), "paper")
    checks.append(t2 == Permutation((1, 6, 5, 4, 3, 2)))
    checks.append(t3 == Permutation((2, 1, 3, 5, 4, 6)))
    checks.append(t4 == Permutation((1, 3, 2, 4, 6, 5)))

    gens5 = [parse_bk_word(f"t{k}", 5) for k in (2, 3, 4)]
    checks.append(generated_group_order(lam, gens5) == 24)

    for n in range(3, 7):
        gens = [parse_bk_word(f"t{k}", n) for k in range(2, n)]
        order = generated_group_order(Partition((n - 1, 1)), gens)
        checks.append(order == math.factorial(n - 1))

    ok = all(checks)
    verdict(6, ok, "(3,1,1) generator permutations and near-row-shape group orders")
    assert ok, checks


def test_criterion_07_main_theorem_and_outlier():
    failures = []
    for n in range(4, 9):
        for lam in enumerate_partitions(n):
            if not is_hook(lam) or lam == Partition((2, 1)):
                continue
            report = verify_main_theorem(lam)
            if report.status != "PASS":
                failures.append(report.to_json())
            vec = kostka_vector(lam)
            if vec.total_dimension() != hook_length_dim(lam):
                failures.append(("dimension", tuple(lam)))
    two_one = verify_two_one_case().status == "PASS"
    ok = not failures and two_one
    verdict(7, ok, "module decomposition equals the Kostka vector for hooks n <= 8; (2,1) swap case")
    assert ok, (failures[:3], two_one)


def test_criterion_08_fold_bijection_and_equivariance():
    failures = []
    for n in range(2, 9):
        for lam in enumerate_partitions(n):
            if not is_hook(lam):
                continue
            report = verify_fold_equivariance(lam)
            if report.status != "PASS":
                failures.append(report.to_json())
    figure = fold_map(Tableau(((1, 2, 3, 4, 5), (6,), (7,), (8,))))
    figure_ok = figure.to_json() == {"shape": [4, 3], "rows": [[1, 2, 3, 4], [5, 6, 7]]}
    ok = not failures and figure_ok
    verdict(8, ok, "fold is an equivariant bijection for all hooks n <= 8")
    assert ok, (failures[:3], figure_ok)


def test_criterion_09_character_machinery():
    problems = []
    for m in range(1, 8):
        table = character_table(m)
        oracle = character_table_oracle(m)
        for mu in table.partitions:
            for rho in table.partitions:
                if table.value(mu, rho) != oracle[tuple(mu)][tuple(rho)]:
                    problems.append(("value", m, tuple(mu), tuple(rho)))
        if sum(table.dimension(mu) ** 2 for mu in table.partitions) != math.factorial(m):
            problems.append(("dim2", m))
        from cactus_tableaux.representation import class_size

        for i, mu in enumerate(table.partitions):
            for nu in table.partitions[i:]:
                inner = sum(
                    class_size(rho) * table.value(mu, rho) * table.value(nu, rho)
                    for rho in table.partitions
                )
                if inner != (math.factorial(m) if mu == nu else 0):
                    problems.append(("orthogonality", m, tuple(mu), tuple(nu)))
    ok = not problems
    verdict(9, ok, "character values match the tabloid/Kostka-inversion oracle, m <= 7")
    assert ok, problems[:5]


def test_criterion_10_property_suites():
    problems = []

    # jeu de taquin confluence over every slide order
    confluence_checked = 0
    for size in range(2, 6):
        for lam in enumerate_partitions(size):
            for mu in subpartitions(lam):
                cells = sum(lam) - sum(mu)
                if not mu or cells < 2:
                    continue
                for T in skew_fillings(lam, mu, min(cells, 3)):
                    if len(jdt_all_rectifications(T)) != 1:
                        problems.append(("confluence", T.to_json()))
                    confluence_checked += 1
    for lam, mu in [((4, 3, 1), (1,)), ((4, 2, 2), (2, 1)), ((4, 4, 1), (2, 1))]:
        cells = sum(lam) - sum(mu)
        for T in skew_fillings(lam, mu, cells):
            if sorted(T.reading_word()) != list(range(1, cells + 1)):
                continue
            if len(jdt_all_rectifications(T)) != 1:
                problems.append(("confluence", T.to_json()))
            confluence_checked += 1
    if confluence_checked < 400:
        problems.append(("confluence-coverage", confluence_checked))

    # pattern bijection roundtrips
    for lam in sweep_shapes(5):
        for T in enumerate_ssyt(lam, 4):
            if from_pattern(to_pattern(T, 4)) != T:
                problems.append(("roundtrip", T.to_json()))

    # the bijection intertwines the row operators
    for lam in sweep_shapes(6):
        for T in enumerate_ssyt(lam, 4):
            P = to_pattern(T, 4)
            for k in (1, 2, 3):
                if from_pattern(bk_tau(P, k)) != strip_swap(T, k):
                    problems.append(("intertwine", T.to_json(), k))

    # the diagonal reflection commutes with every generator on SYT
    for n in range(2, 8):
        for lam in enumerate_partitions(n):
            tabs = syt_tuple(tuple(lam))
            for a in range(1, n):
                for b in range(a + 1, n + 1):
                    w = CactusWord(n, (Interval(a, b),))
                    for T in tabs:
                        if dual_reflect(cactus_act(w, T)) != cactus_act(w, dual_reflect(T)):
                            problems.append(("delta", tuple(lam), (a, b)))

    # every generator is an involution on SYT
    for n in range(2, 8):
        for lam in enumerate_partitions(n):
            for a in range(1, n):
                for b in range(a + 1, n + 1):
                    p = word_perm(CactusWord(n, (Interval(a, b),)), lam, domain="syt")
                    if not (p * p).is_identity():
                        problems.append(("involution", tuple(lam), (a, b)))

    # evacuation reverses content
    for lam in sweep_shapes(6):
        for T in enumerate_ssyt(lam, 4):
            if tuple(content(evacuation(T, 4), 4)) != tuple(reversed(content(T, 4))):
                problems.append(("content", T.to_json()))

    ok = not problems
    verdict(10, ok, "confluence, bijection, involution, reflection and content properties")
    assert ok, problems[:5]
