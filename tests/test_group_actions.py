"""Words, induced permutations, and the relation checkers."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cactus_tableaux.group_actions import (
    _induced_perm,
    BKWord,
    CactusWord,
    act,
    bk_act,
    cactus_act,
    check_bk_relations,
    check_cactus_defining,
    check_chi_consistency,
    check_pq_promotion,
    check_reduced_cactus,
    check_star_relation,
    check_star_sixth,
    check_xi_relations,
    chi_translate,
    generated_group_order,
    generator_permutation,
    interval_perm,
    paper_syt_ordering,
    parse_bk_word,
    parse_cactus_word,
    parse_word,
    pi_ij_image,
    pi_k_image,
    relation_report,
    star_relation_expected,
    word_perm,
)
from cactus_tableaux.gt_patterns import strip_swap
from cactus_tableaux.shapes import (
    Interval,
    Partition,
    Permutation,
    enumerate_partitions,
)
from cactus_tableaux.sliding import (
    bounded_promotion,
    evacuation,
    interval_evacuation,
    partial_evacuation,
)
from cactus_tableaux.tableaux import (
    Tableau,
    enumerate_ssyt,
    enumerate_syt,
    ssyt_tuple,
    syt_tuple,
)


class TestParsing:
    def test_cactus(self):
        w = parse_cactus_word("c[1,3] c[2,5]", 5)
        assert w.factors == (Interval(1, 3), Interval(2, 5))

    def test_bk(self):
        w = parse_bk_word("t3 p4 q2", 5)
        assert w.factors == (("t", 3), ("p", 4), ("q", 2))

    def test_dispatch(self):
        assert isinstance(parse_word("c[1,2]", 3), CactusWord)
        assert isinstance(parse_word("t2", 3), BKWord)

    def test_rejects_bad_tokens(self):
        with pytest.raises(ValueError):
            parse_cactus_word("c[3,1]", 5)
        with pytest.raises(ValueError):
            parse_cactus_word("c[1,9]", 5)
        with pytest.raises(ValueError):
            parse_bk_word("x7", 5)
        with pytest.raises(ValueError):
            parse_bk_word("t9", 5)

    def test_expand(self):
        w = BKWord(5, (("q", 3),))
        assert w.expand() == (1, 2, 1, 3, 2, 1)
        assert BKWord(5, (("p", 4),)).expand() == (4, 3, 2, 1)


class TestActions:
    def test_identity_word(self):
        T = Tableau(((1, 2), (3,)))
        assert cactus_act(CactusWord(3, ()), T) == T
        assert bk_act(BKWord(3, ()), T) == T

    def test_full_interval_is_evacuation(self):
        w = parse_cactus_word("c[1,5]", 5)
        T = Tableau(((1, 2), (3,), (4,), (5,)))
        assert cactus_act(w, T) == evacuation(T, 5)

    def test_rightmost_factor_acts_first(self):
        u = parse_cactus_word("c[1,2]", 3)
        v = parse_cactus_word("c[1,3]", 3)
        T = Tableau(((1, 2), (3,)))
        assert cactus_act(u * v, T) == cactus_act(u, cactus_act(v, T))

    def test_remark_counterexample(self):
        w = parse_bk_word("t3 t4", 5) ** 3
        assert act(w, Tableau(((1, 3, 4), (2, 5)))) == Tableau(((1, 3, 5), (2, 4)))

    def test_bk_word_keeps_factors_given_as_a_generator(self):
        w = BKWord(4, (("t", k) for k in (1, 2, 3)))
        assert w.factors == (("t", 1), ("t", 2), ("t", 3))
        assert str(w) == "t1 t2 t3"

    @staticmethod
    def public_act(w, T):
        """The word applied factor by factor through the public operations."""
        if isinstance(w, CactusWord):
            for a, b in reversed(w.factors):
                if a == 1:
                    T = partial_evacuation(T, b)
                else:
                    T = interval_evacuation(T, Interval(a, b))
            return T
        for k in reversed(w.expand()):
            T = strip_swap(T, k)
        return T

    def test_act_matches_public_operations_on_seeded_words(self):
        rng = random.Random(20261018)
        for _ in range(500):
            lam = tuple(rng.choice(enumerate_partitions(rng.randint(1, 5))))
            n = rng.randint(max(2, len(lam)), 5)
            T = rng.choice(ssyt_tuple(lam, n))
            length = rng.randint(0, 5)
            if rng.random() < 0.5:
                intervals = [
                    Interval(a, b) for a in range(1, n) for b in range(a + 1, n + 1)
                ]
                w = CactusWord(n, tuple(rng.choice(intervals) for _ in range(length)))
            else:
                atoms = [(kind, k) for kind in "tpq" for k in range(1, n)]
                w = BKWord(n, tuple(rng.choice(atoms) for _ in range(length)))
            assert act(w, T) == self.public_act(w, T), (str(w), T)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_action_axiom_random_words(self, data):
        n = 4
        intervals = [
            Interval(a, b) for a in range(1, n) for b in range(a + 1, n + 1)
        ]
        u = CactusWord(n, tuple(data.draw(st.lists(st.sampled_from(intervals), max_size=3))))
        v = CactusWord(n, tuple(data.draw(st.lists(st.sampled_from(intervals), max_size=3))))
        T = data.draw(st.sampled_from(enumerate_ssyt(Partition((2, 1)), n)))
        assert cactus_act(u * v, T) == cactus_act(u, cactus_act(v, T))


class TestQuotients:
    def test_pi_n_is_the_classical_quotient(self):
        n = 4
        w = CactusWord(n, (Interval(1, 4),))
        assert pi_k_image(w, 4) == Permutation.interval_reversal(4, 1, 4)

    def test_pi_k_kills_short_intervals(self):
        w = CactusWord(5, (Interval(2, 4),))
        assert pi_k_image(w, 3).is_identity()
        assert pi_k_image(w, 4) == Permutation.interval_reversal(4, 2, 3)

    def test_pi_ij_matches_pi_k(self):
        # pi_k = pi_(0, n-k) up to embedding
        n, k = 5, 3
        intervals = [
            Interval(a, b) for a in range(1, n) for b in range(a + 1, n + 1)
        ]
        rng = random.Random(1)
        for _ in range(20):
            w = CactusWord(
                n, tuple(rng.choice(intervals) for _ in range(rng.randint(1, 4)))
            )
            lhs = pi_k_image(w, k)
            rhs = pi_ij_image(w, 0, n - k).restricted(k)
            assert lhs == rhs

    def test_chi_on_initial_intervals(self):
        w = CactusWord(4, (Interval(1, 3),))
        assert chi_translate(w).factors == (("q", 2),)

    def test_chi_on_general_intervals(self):
        w = CactusWord(5, (Interval(2, 4),))
        assert chi_translate(w).factors == (("q", 3), ("q", 2), ("q", 3))


class TestWordPerms:
    def test_word_perm_matches_pointwise_action(self):
        lam = (2, 1)
        tabs = enumerate_ssyt(Partition(lam), 3)
        w = parse_cactus_word("c[2,3] c[1,2]", 3)
        perm = word_perm(w, lam, 3, "ssyt")
        for i, T in enumerate(tabs):
            assert tabs[perm(i + 1) - 1] == cactus_act(w, T)

    def test_p_k_is_bounded_promotion(self):
        lam = (2, 2)
        tabs = enumerate_ssyt(Partition(lam), 4)
        perm = word_perm(BKWord(4, (("p", 2),)), lam, 4, "ssyt")
        for i, T in enumerate(tabs):
            assert tabs[perm(i + 1) - 1] == bounded_promotion(T, 3)

    @pytest.mark.parametrize("domain", ["ssyt", "syt"])
    @pytest.mark.parametrize("word", [CactusWord(4, ()), BKWord(4, ())])
    def test_empty_word_is_identity_of_the_domain(self, word, domain):
        lam = (2, 1, 1)
        tabs = ssyt_tuple(lam, 4) if domain == "ssyt" else syt_tuple(lam)
        perm = word_perm(word, lam, 4, domain)
        assert perm == Permutation.identity(len(tabs))


class TestLiftedIntervalPerms:
    """The composed xi_[a,b] against the tableau-level reference."""

    @staticmethod
    def reference(a, b):
        """The tableau-level involution, as a map of rows."""
        if a == 1:
            return lambda rows: partial_evacuation(Tableau(rows), b).rows
        return lambda rows: interval_evacuation(Tableau(rows), Interval(a, b)).rows

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equal_to_tableau_level_evacuations(self, n):
        for lam in map(tuple, enumerate_partitions(n)):
            for a in range(1, n):
                for b in range(a + 1, n + 1):
                    op = self.reference(a, b)
                    for m in (n, None):
                        assert interval_perm(lam, m, a, b) == _induced_perm(
                            lam, m, op, f"xi[{a},{b}]"
                        ), (lam, m, a, b)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            interval_perm((2, 1), 3, 2, 1)
        with pytest.raises(ValueError):
            interval_perm((2, 1), None, 0, 2)


class TestOrderings:
    def test_paper_311_ordering_permutations(self):
        lam = Partition((3, 1, 1))
        assert len(paper_syt_ordering(lam)) == 6
        t2 = generator_permutation(lam, parse_bk_word("t2", 5), "paper")
        t3 = generator_permutation(lam, parse_bk_word("t3", 5), "paper")
        t4 = generator_permutation(lam, parse_bk_word("t4", 5), "paper")
        assert t2 == Permutation((1, 6, 5, 4, 3, 2))  # (2 6)(3 5)
        assert t3 == Permutation((2, 1, 3, 5, 4, 6))  # (1 2)(4 5)
        assert t4 == Permutation((1, 3, 2, 4, 6, 5))  # (2 3)(5 6)

    def test_two_row_hook_ordering(self):
        lam = Partition((4, 1))
        tabs = paper_syt_ordering(lam)
        assert [t.rows[1][0] for t in tabs] == [2, 3, 4, 5]
        # t_i swaps T_{i-1} and T_i
        for i in (2, 3, 4):
            perm = generator_permutation(lam, parse_bk_word(f"t{i}", 5), "paper")
            assert perm == Permutation.transposition(4, i - 1, i)

    def test_generated_group_orders(self):
        five = [parse_bk_word(f"t{k}", 5) for k in (2, 3, 4)]
        assert generated_group_order(Partition((4, 1)), five) == 24
        assert generated_group_order(Partition((3, 1, 1)), five) == 24
        assert generated_group_order(Partition((5,)), five) == 1

    def test_two_two_image_group_order_recorded(self):
        # the image for (2,2) is generated by one swap and one identity
        gens = [parse_bk_word(f"t{k}", 4) for k in (2, 3)]
        assert generated_group_order(Partition((2, 2)), gens) == 2


class TestRelationCheckers:
    @pytest.mark.parametrize(
        "checker",
        [
            check_cactus_defining,
            check_xi_relations,
            check_bk_relations,
            check_pq_promotion,
            check_reduced_cactus,
            check_star_sixth,
        ],
    )
    @pytest.mark.parametrize("shape", [(3,), (2, 1), (2, 2), (2, 1, 1)])
    def test_families_pass_on_small_shapes(self, checker, shape):
        report = checker(sum(shape), shape)
        assert report.status == "PASS", report.to_json()

    def test_chi_consistency_deterministic(self):
        a = check_chi_consistency(4, (2, 1, 1), seed=7)
        b = check_chi_consistency(4, (2, 1, 1), seed=7)
        assert a == b and a.status == "PASS"

    def test_star_fails_off_hooks_with_counterexample(self):
        report = check_star_relation(5, (3, 2))
        assert report.status == "FAIL"
        # the first failing instance is reported, with a replayable tableau
        assert report.counterexample["instance"] == "(t2 t3)^3"
        ce = Tableau.from_json(report.counterexample["tableau"])
        w = parse_bk_word("t2 t3", 5) ** 3
        assert act(w, ce) != ce
        # the cited k=3 instance fails too, on the cited tableau
        w = parse_bk_word("t3 t4", 5) ** 3
        assert act(w, Tableau(((1, 3, 4), (2, 5)))) == Tableau(((1, 3, 5), (2, 4)))

    def test_star_passes_on_hooks(self):
        for shape in [(5,), (4, 1), (3, 1, 1), (1, 1, 1, 1, 1)]:
            assert check_star_relation(5, shape).status == "PASS"

    def test_star_expected_predicate(self):
        assert star_relation_expected(Partition((4, 1)))
        assert star_relation_expected(Partition((2, 2)))
        assert not star_relation_expected(Partition((3, 2)))

    def test_relation_report_runs_selected_families(self):
        reports = relation_report(3, [Partition((2, 1))], ["cactus-defining"])
        assert len(reports) == 1
        assert reports[0].relation == "cactus-defining"
        with pytest.raises(ValueError):
            relation_report(3, [Partition((2, 1))], ["no-such-family"])

    def test_every_generator_is_an_involution_on_syt(self):
        from cactus_tableaux import enumerate_partitions

        for n in range(2, 6):
            for lam in enumerate_partitions(n):
                for a in range(1, n):
                    for b in range(a + 1, n + 1):
                        p = word_perm(
                            CactusWord(n, (Interval(a, b),)), lam, domain="syt"
                        )
                        assert (p * p).is_identity()


BROKEN_KERNELS = """
import sys

from cactus_tableaux import group_actions, gt_patterns, sliding
from cactus_tableaux.tableaux import Tableau

if __debug__:
    sys.exit("assert statements are live: not an optimised run")


def broken(rows, k):
    return (rows[0][::-1],) + rows[1:]  # row 0 of a SYT no longer increases


for module in (sliding, gt_patterns, group_actions):
    for name in ("_promote_rows", "_swap_rows"):
        if hasattr(module, name):
            setattr(module, name, broken)
T = Tableau(((1, 2), (3,)))
calls = {
    "strip_swap": lambda: gt_patterns.strip_swap(T, 1),
    "bounded_promotion": lambda: sliding.bounded_promotion(T, 2),
    "bk_t_perm": lambda: group_actions.bk_t_perm((2, 1), None, 1),
    "promotion_perm": lambda: group_actions.promotion_perm((2, 1), None, 2),
    "act t2": lambda: group_actions.act(group_actions.parse_word("t2", 3), T),
    "act c[1,3]": lambda: group_actions.act(group_actions.parse_word("c[1,3]", 3), T),
}
for name, call in calls.items():
    try:
        call()
    except AssertionError:
        continue
    print(name)
"""


def test_kernel_post_conditions_hold_under_python_O():
    """With the row kernels replaced by a broken stand-in, every layer that
    runs them still raises, in an interpreter that strips assert statements."""
    import cactus_tableaux

    src = str(Path(cactus_tableaux.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_KERNELS],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "", f"did not raise: {proc.stdout.splitlines()}"
