"""Words, induced permutations, and the relation checkers."""

import operator
import os
import random
import re
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cactus_tableaux import group_actions, tableaux
from cactus_tableaux.group_actions import (
    _atom_perm,
    BKWord,
    CactusWord,
    act,
    bk_act,
    bk_t_perm,
    cactus_act,
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
    promotion_perm,
    word_perm,
)
from cactus_tableaux.gt_patterns import (
    _swap_rows,
    bk_tau,
    from_pattern,
    strip_swap,
    to_pattern,
)
from cactus_tableaux.shapes import (
    Interval,
    Partition,
    Permutation,
    enumerate_partitions,
    is_hook,
)
from cactus_tableaux.sliding import (
    _promote_rows,
    bounded_promotion,
    evacuation,
    interval_evacuation,
    partial_evacuation,
    promotion,
)
from cactus_tableaux.tableaux import (
    _DOMAIN_CACHES,
    Tableau,
    _index,
    enumerate_ssyt,
    enumerate_syt,
    ssyt_tuple,
    syt_tuple,
)
from cactus_tableaux.verify import (
    check_bk_relations,
    check_cactus_defining,
    check_chi_consistency,
    check_pq_promotion,
    check_reduced_cactus,
    check_star_relation,
    check_star_sixth,
    check_xi_relations,
    star_relation_expected,
    verify_main_theorem,
)

from helpers import _induced_perm


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

    @pytest.mark.parametrize("word", [CactusWord(3, ((1, 2),)), BKWord(3, (("t", 1),))])
    def test_powers(self, word):
        assert (word**0).factors == ()
        assert (word**2).factors == word.factors * 2
        with pytest.raises(ValueError, match="negative power"):
            word**-1

    def test_bk_index_is_normalised_to_int(self):
        w = BKWord(3, (("t", True),))
        assert str(w) == "t1" and type(w.factors[0][1]) is int

    def test_cactus_index_must_be_an_integer(self):
        with pytest.raises(TypeError):
            CactusWord(3, ((1.0, 2),))

    def test_cactus_times_bk_word_is_a_type_error(self):
        with pytest.raises(TypeError, match="unsupported operand"):
            CactusWord(3, ((1, 2),)) * BKWord(3, (("t", 1),))

    def test_bk_times_cactus_word_is_a_type_error(self):
        with pytest.raises(TypeError, match="unsupported operand"):
            BKWord(3, (("t", 1),)) * CactusWord(3, ((1, 2),))

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

    @pytest.mark.parametrize(
        "text, passes",
        [
            ("c[2,4] c[2,4]", "E4 E3 E4 E4 E3 E4"),
            ("c[1,3] c[1,3]", "E3 E3"),
            ("c[1,5]", "E5"),
            ("c[3,5] c[1,2] c[2,5]", "E5 E4 E5 E2 E5 E3 E5"),
            ("t2 t2", "S2 S2"),
            ("p2 p2", "P3 P3"),
            ("q3 q3", "E4 E4"),
            ("t1 p4 q2 t4", "S4 E3 P5 S1"),
        ],
    )
    def test_each_factor_is_its_own_checked_passes(self, monkeypatch, text, passes):
        """One kernel pass per c[1,b] or t/p/q atom and three per c[a,b]
        with a > 1, rightmost factor first, with equal neighbours never
        cancelled; each pass's image goes through ``_check_image`` before
        the next pass reads it.  E, P and S name the evacuation, promotion
        and strip-swap kernels, each followed by its window k."""
        w = parse_word(text, 5)
        domain = [
            T
            for n in range(6)
            for lam in enumerate_partitions(n)
            for T in enumerate_ssyt(lam, 5)
        ]
        expected = [act(w, T) for T in domain]
        log = []

        def counted(letter, kernel):
            def run(rows, k):
                image = kernel(rows, k)
                log.append((f"{letter}{k}", rows, image))
                return image

            return run

        check_image = group_actions._check_image

        def checked(before, after, what):
            log.append(("check", before, after))
            return check_image(before, after, what)

        for name, letter in [
            ("_evacuate_rows", "E"),
            ("_promote_rows", "P"),
            ("_swap_rows", "S"),
        ]:
            kernel = getattr(group_actions, name)
            monkeypatch.setattr(group_actions, name, counted(letter, kernel))
        monkeypatch.setattr(group_actions, "_check_image", checked)
        for T, image in zip(domain, expected):
            log.clear()
            assert act(w, T) == image
            runs, checks = log[::2], log[1::2]
            assert " ".join(step for step, _, _ in runs) == passes, T
            assert checks == [("check", rows, out) for _, rows, out in runs], T
            outputs = [out for _, _, out in runs]
            assert [rows for _, rows, _ in runs] == [T.rows] + outputs[:-1], T
            assert outputs[-1] == image.rows, T


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

    @pytest.mark.parametrize("domain", ["ssyt", "syt"])
    @pytest.mark.parametrize("word", [CactusWord(4, ()), BKWord(4, ())])
    def test_empty_word_is_identity_of_the_domain(self, word, domain):
        lam = (2, 1, 1)
        tabs = ssyt_tuple(lam, 4) if domain == "ssyt" else syt_tuple(lam)
        perm = word_perm(word, lam, 4, domain)
        assert perm == Permutation.identity(len(tabs))


    @pytest.mark.parametrize(
        "text, n, m, domain, what",
        [
            ("c[1,4]", 4, 3, "ssyt", "xi[1,4]"),
            ("c[1,5]", 5, None, "syt", "xi[1,5]"),
            ("t3", 4, 3, "ssyt", "t3"),
            ("q3", 4, 3, "ssyt", "t3"),
            ("t3", 4, None, "syt", "t3"),
            ("t4", 5, None, "syt", "t4"),
        ],
        ids=["c[1,4]-4-3-ssyt", "c[1,5]-5-None-syt", "t3-4-3-ssyt",
             "q3-4-3-ssyt", "t3-4-None-syt", "t4-5-None-syt"],
    )
    def test_window_past_the_alphabet_is_malformed_input(
        self, text, n, m, domain, what
    ):
        # The message names the generator whose window is out, not an
        # inner build.
        match = re.escape(what) + " needs a window inside the alphabet 1..3"
        with pytest.raises(ValueError, match=match):
            word_perm(parse_word(text, n), (2, 1), m, domain)


class TestAtoms:
    """p_k and q_k act as one atom each: by one kernel pass on a tableau and
    by one cached permutation on a domain.  Their t-expansion is the oracle:
    the cross-check matrix compares each ``act`` atom with its t-built
    permutation, and this checks the cached atom against its t perms."""

    @pytest.mark.parametrize("n", range(2, 6))
    def test_cached_atom_equals_the_product_of_its_t_perms(self, n):
        for lam in map(tuple, enumerate_partitions(n)):
            for m in (n, None):
                for kind in "tpq":
                    for k in range(1, n):
                        ts = BKWord(n, ((kind, k),)).expand()
                        assert _atom_perm(lam, m, kind, k) == reduce(
                            operator.mul, (bk_t_perm(lam, m, j) for j in ts)
                        ), (lam, m, kind, k)


class TestLiftedIntervalPerms:
    """The composed xi_[a,b]; the cross-check matrix compares it with the
    tableau-level involutions for every a < b."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_one_point_interval_is_the_identity(self, n):
        for lam in map(tuple, enumerate_partitions(n)):
            for a in range(1, n + 1):
                for m in (n, None):
                    assert interval_perm(lam, m, a, a).is_identity(), (lam, m, a)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            interval_perm((2, 1), 3, 2, 1)
        with pytest.raises(ValueError):
            interval_perm((2, 1), None, 0, 2)


class TestSytTPerms:
    """t_k on SYT(lam), the row-word swap, against the strip-swap kernel
    and the GT-pattern reflection, past the cross-check matrix's n <= 6."""

    @pytest.mark.parametrize("n", [7, 8])
    def test_equal_to_strip_swap_and_bk_tau(self, n):
        for lam in map(tuple, enumerate_partitions(n)):
            tabs = syt_tuple(lam)
            index = {T: i + 1 for i, T in enumerate(tabs)}
            patterns = [to_pattern(T, n) for T in tabs]
            for k in range(1, n):
                perm = bk_t_perm(lam, None, k)
                assert perm == _induced_perm(
                    lam, None, lambda rows: _swap_rows(rows, k), f"t{k}"
                ), (lam, k)
                assert perm.images == tuple(
                    index[from_pattern(bk_tau(P, k))] for P in patterns
                ), (lam, k)
                assert (perm * perm).is_identity(), (lam, k)

    @pytest.mark.parametrize("n", range(9, 13))
    def test_hooks_reach_every_digit_base(self, n):
        """The build keys each row word in base max(len(lam), 2).  The matrix
        and the sweep above take every lam of n <= 8, so with the hooks of
        n = 9..12 every hook of 4 <= n <= 12 is checked, up to base 12 on
        (1^12)."""
        for lam in map(tuple, enumerate_partitions(n)):
            if not is_hook(lam):
                continue
            for k in range(1, n):
                assert bk_t_perm(lam, None, k) == _induced_perm(
                    lam, None, lambda rows: _swap_rows(rows, k), f"t{k}"
                ), (lam, k)
        tableaux._drop_domains()


def _documented_weights(lam, m):
    """The digit weights {(i, j): weight} and the cuts of the keys of
    SSYT(lam, m), as ``tableaux._keyed_domain`` documents them: a digit
    (i, j) of radix lam_i + 1 for each 1 <= i <= min(j, len(lam)) and
    j < m, ordered by j and then by i."""
    weights, cuts = {}, [1]
    for j in range(1, m):
        weight = cuts[-1]
        for i in range(1, min(j, len(lam)) + 1):
            weights[i, j] = weight
            weight *= lam[i - 1] + 1
        cuts.append(weight)
    return weights, (*cuts, cuts[-1])


@pytest.mark.parametrize("n", range(1, 7))
def test_keyed_domain_reads_the_documented_keys(n):
    """On SSYT(lam, m), m <= 6, each key is the tableau's Gelfand-Tsetlin
    pattern from ``to_pattern`` read in the documented mixed radix, with
    the documented cuts; on SYT(lam) it is the row word in base
    d = max(len(lam), 2), the key of ``_syt_keys``, with cuts d^j.  Each
    key maps to its 1-based position in the index, the image a
    ``Permutation`` gives it."""
    for lam in map(tuple, enumerate_partitions(n)):
        for m in range(1, 7):
            index, cuts, keys, position = tableaux._keyed_domain(lam, m)
            weights, expected = _documented_weights(lam, m)
            assert cuts == expected, (lam, m)
            patterns = [to_pattern(Tableau(rows), m) for rows in index]
            assert keys == [
                sum(P.entry(i, j) * w for (i, j), w in weights.items())
                for P in patterns
            ], (lam, m)
            assert position == {key: i for i, key in enumerate(keys, 1)}, (lam, m)
        index, cuts, keys, position = tableaux._keyed_domain(lam, None)
        d = max(len(lam), 2)
        assert cuts == tuple(d**j for j in range(n + 1)), lam
        assert keys == tableaux._syt_keys(lam)[0], lam
        assert keys == [
            sum(r * d ** (x - 1) for r, row in enumerate(T) for x in row) for T in index
        ], lam
        assert position == {key: i for i, key in enumerate(keys, 1)}, lam
        tableaux._drop_domains()


def test_windowed_builds_on_a_part_above_255():
    """A part above 255 gives digits of radix 257 and more; the t_k and
    pr_k builds on its windows still equal one kernel call per tableau."""
    lam, m = (256,), 2
    assert len(_index(lam, m)) == 257
    assert bk_t_perm(lam, m, 1) == _induced_perm(
        lam, m, lambda rows: _swap_rows(rows, 1), "t1"
    )
    assert promotion_perm(lam, m, 2) == _induced_perm(
        lam, m, lambda rows: _promote_rows(rows, 2), "pr2"
    )
    tableaux._drop_domains()


def test_each_window_runs_its_kernel_once(monkeypatch):
    """On SSYT((3, 2, 1), 6), t_k runs ``_swap_rows`` once per distinct
    pattern rows k-1..k+1; on SYT((3, 2, 1)) it runs none.  On both, pr_k
    runs ``_promote_rows`` once per distinct pattern rows 1..k among the
    patterns of the domain: on SYT, once per distinct ``key % d^k``."""
    lam, n = (3, 2, 1), 6
    calls = {}
    for name in ("_swap_rows", "_promote_rows"):
        kernel = getattr(group_actions, name)

        def counted(rows, k, name=name, kernel=kernel):
            calls[name] += 1
            return kernel(rows, k)

        monkeypatch.setattr(group_actions, name, counted)
    tableaux._drop_domains()
    for m in (n, None):
        patterns = [to_pattern(Tableau(rows), n).rows for rows in _index(lam, m)]
        for k in range(1, n):
            calls.update(_swap_rows=0, _promote_rows=0)
            bk_t_perm(lam, m, k)
            windows = {P[max(k - 2, 0) : k + 1] for P in patterns} if m else ()
            assert calls == {"_swap_rows": len(windows), "_promote_rows": 0}, (m, k)
        for k in range(1, n + 1):
            calls.update(_swap_rows=0, _promote_rows=0)
            promotion_perm(lam, m, k)
            windows = {P[:k] for P in patterns}
            assert calls == {"_swap_rows": 0, "_promote_rows": len(windows)}, (m, k)
    tableaux._drop_domains()


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
        a = check_chi_consistency(4, (2, 1, 1))
        b = check_chi_consistency(4, (2, 1, 1))
        assert a == b and a.status == "PASS"

    def test_word_perms_and_translation_multiply_factor_by_factor(self):
        # Why check_chi_consistency may stop at the generators: both sides
        # of any word are products of their factors' permutations.
        rng = random.Random(13)
        shapes = [
            tuple(lam) for n in range(2, 5) for lam in enumerate_partitions(n)
        ] + [(4, 1), (3, 2), (2, 2, 1)]
        for lam in shapes:
            n = sum(lam)
            intervals = [
                Interval(a, b) for a in range(1, n) for b in range(a + 1, n + 1)
            ]
            atoms = [(kind, k) for kind in "tpq" for k in range(1, n)]

            def cactus():
                return CactusWord(
                    n, tuple(rng.choice(intervals) for _ in range(rng.randint(1, 6)))
                )

            def bk():
                return BKWord(
                    n, tuple(rng.choice(atoms) for _ in range(rng.randint(1, 6)))
                )

            for _ in range(10):
                for u, v in ((cactus(), cactus()), (bk(), bk())):
                    assert word_perm(u * v, lam) == word_perm(u, lam) * word_perm(
                        v, lam
                    ), (lam, str(u), str(v))
                u, v = cactus(), cactus()
                assert chi_translate(u * v) == chi_translate(u) * chi_translate(v)
                w = cactus()
                assert word_perm(w, lam) == word_perm(chi_translate(w), lam), (
                    lam, str(w)
                )

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


class TestDomainIndex:
    """The domain index holds the tableaux of the public enumerators, in
    their order, so a position in it names the tableau they list there."""

    def test_ssyt_order_matches_enumerate_ssyt(self):
        for n in range(6):
            for lam in enumerate_partitions(n):
                for m in (n, n + 1):
                    if m:
                        assert list(_index(tuple(lam), m)) == [
                            t.rows for t in enumerate_ssyt(lam, m)
                        ]

    def test_syt_order_matches_enumerate_syt(self):
        """``_index(lam, None)``, decoded from ``_syt_keys``, against the
        independent fill of ``_content_rows`` behind ``enumerate_syt``; and
        the key build's below masks against the rows they were read from."""
        for lam in _syt_shapes():
            rows = [t.rows for t in enumerate_syt(lam)]
            assert list(_index(tuple(lam), None)) == rows, lam
            _, below, _ = tableaux._syt_keys(tuple(lam))
            assert below == [_below_mask(r) for r in rows], lam
            tableaux._drop_domains()

    @pytest.mark.parametrize(
        "name, lam, m", [("_syt_keys", (3, 1), None), ("_ssyt_rows", (2, 1), 3)]
    )
    def test_domain_count_post_condition(self, monkeypatch, name, lam, m):
        """The domain build counts both its rows and its keys: a key build
        without its first tableau, or a fill without its first rows, is
        caught there, in every run mode."""
        build = getattr(tableaux, name)
        if m is None:  # every SYT but the first: its key, mask and position go

            def corrupted(lam):
                keys, below, _ = build(lam)
                keys, below = keys[1:], below[1:]
                return keys, below, {key: i for i, key in enumerate(keys, 1)}

        else:  # every SSYT's key, but the rows of the first go

            def corrupted(*args):
                rows, keys, cuts = build(*args)
                return rows[1:], keys, cuts

        monkeypatch.setattr(tableaux, name, corrupted)
        try:
            with pytest.raises(AssertionError, match="distinct tableaux by rows"):
                tableaux._keyed_domain.__wrapped__(lam, m)
        finally:
            tableaux._drop_domains()

    def test_syt_key_count_post_condition(self, monkeypatch):
        """The key build checks its own count, which the main-theorem path
        reads in place of the domain build's."""
        count = tableaux._syt_count
        monkeypatch.setattr(tableaux, "_syt_count", lambda lam: count(lam) + 1)
        with pytest.raises(AssertionError, match="distinct tableaux"):
            tableaux._syt_keys.__wrapped__((3, 1))

    def test_main_theorem_builds_no_syt_rows(self):
        """On a hook of size n, the t_k builds and the identity class read
        the keys of ``_syt_keys`` only, so the main theorem leaves
        ``_keyed_domain`` empty; it multiplies t_2, ..., t_{n-1}, as s_i
        acts as t_{i+1}, and builds no t_1.  A domain build on SYT reuses
        the key build's position dict."""
        lam, n = (6,) + (1,) * 6, 12
        tableaux._drop_domains()
        assert verify_main_theorem(Partition(lam)).status == "PASS"
        assert tableaux._keyed_domain.cache_info().currsize == 0
        held = [c.__name__ for c in _DOMAIN_CACHES if c.cache_info().currsize]
        assert sorted(held) == ["_syt_keys", "bk_t_perm"]
        assert bk_t_perm.cache_info().currsize == n - 2
        misses = bk_t_perm.cache_info().misses
        for k in range(2, n):  # every t_k of the main theorem is held
            bk_t_perm(lam, None, k)
        assert bk_t_perm.cache_info().misses == misses
        tableaux._drop_domains()
        lam = (3, 2, 1)
        assert tableaux._keyed_domain(lam, None)[3] is tableaux._syt_keys(lam)[2]
        tableaux._drop_domains()


def _syt_shapes():
    """Every partition of n <= 9 and every hook of 10 <= n <= 12."""
    for n in range(10):
        yield from enumerate_partitions(n)
    for n in range(10, 13):
        for leg in range(n):
            yield Partition((n - leg,) + (1,) * leg)


def _below_mask(rows):
    """The int with bit x set when x sits directly below x - 1 in rows."""
    cell = {x: (r, c) for r, row in enumerate(rows) for c, x in enumerate(row)}
    mask = 0
    for x in range(2, len(cell) + 1):
        (r, c), (s, e) = cell[x - 1], cell[x]
        if s == r + 1 and e == c:
            mask |= 1 << x
    return mask


def _single_tableau_ops(m):
    """Every generator of rank m through ``act``, and the six public
    single-tableau operations with every window inside 1..m."""
    intervals = [(a, b) for a in range(1, m) for b in range(a + 1, m + 1)]
    words = [parse_word("c[%d,%d]" % J, m) for J in intervals]
    words += [parse_word(f"{kind}{k}", m) for kind in "tpq" for k in range(1, m)]
    ops = [lambda T, w=w: act(w, T) for w in words]
    ops += [lambda T: promotion(T, m), lambda T: evacuation(T, m), evacuation]
    ops += [lambda T, k=k: bounded_promotion(T, k) for k in range(1, m + 1)]
    ops += [lambda T, k=k: strip_swap(T, k) for k in range(1, m)]
    ops += [lambda T, k=k: partial_evacuation(T, k) for k in range(2, m + 1)]
    ops += [lambda T, J=J: interval_evacuation(T, J) for J in intervals]
    return ops


@pytest.mark.parametrize("m", range(1, 6))
def test_unchecked_results_equal_their_validated_rows(m):
    """The kernels' images become tableaux through ``Tableau._unchecked``;
    on every SSYT(lam, m) with |lam| <= 5, each must be the tableau that
    full validation builds from its rows, and hold exact ints only."""
    ops = _single_tableau_ops(m)
    for n in range(6):
        for lam in enumerate_partitions(n):
            for T in enumerate_ssyt(lam, m):
                for op in ops:
                    out = op(T)
                    checked = Tableau(out.rows)
                    assert out == checked and hash(out) == hash(checked), T
                    assert all(type(e) is int for row in out.rows for e in row)


BROKEN_KERNELS = """
import sys

from cactus_tableaux import group_actions, gt_patterns, sliding, tableaux
from cactus_tableaux.tableaux import Tableau

if __debug__:
    sys.exit("assert statements are live: not an optimised run")

SWAP_ROWS = gt_patterns._swap_rows  # the working kernel, before the stand-ins


def reversed_row(rows, k):
    return (rows[0][::-1],) + rows[1:]  # row 0 of a SYT no longer increases


def one_row(rows, k):
    # Semistandard, but of another shape when T has two rows or more.
    return (tuple(sorted(e for row in rows for e in row)),)


def syt_rule_on_a_corrupted_domain():
    # The keys of SYT((3, 1)) without two of its tableaux, which skips the
    # key build's count: t3 finds no image for ((1, 2, 3), (4,)), and the
    # below mask says 4 is not directly below 3 there.
    build = group_actions._syt_keys

    def first_only(lam):
        keys, below, _ = build(lam)
        return keys[:1], below[:1], {keys[0]: 1}

    group_actions._syt_keys = first_only
    try:
        group_actions.bk_t_perm((3, 1), None, 3)
    finally:
        group_actions._syt_keys = build


def t_rule_on_corrupted_keys():
    # The keyed domain of SSYT((2, 1), 3) keeps the position of its first
    # key only, so t1 maps the other tableaux to keys outside the domain.
    # The strip swap is the working one here, so only the check of every
    # image key against the positions can see it.
    keyed, broken = group_actions._keyed_domain, group_actions._swap_rows

    def corrupted(lam, m):
        index, cuts, keys, position = keyed(lam, m)
        return index, cuts, keys, dict(list(position.items())[:1])

    group_actions._keyed_domain, group_actions._swap_rows = corrupted, SWAP_ROWS
    try:
        group_actions.bk_t_perm((2, 1), 3, 1)
    finally:
        group_actions._keyed_domain, group_actions._swap_rows = keyed, broken


def domain_without_its_first_tableau():
    # The keys of SYT((3, 1)) without the first, which skips the key
    # build's count: the domain build counts its rows and keys again.
    build = tableaux._syt_keys

    def all_but_first(lam):
        keys, below, _ = build(lam)
        keys, below = keys[1:], below[1:]
        return keys, below, {key: i for i, key in enumerate(keys, 1)}

    tableaux._syt_keys = all_but_first
    try:
        tableaux._keyed_domain.__wrapped__((3, 1), None)
    finally:
        tableaux._syt_keys = build


def ssyt_keys_off_their_count():
    # The fill of SSYT((2, 1), 3) with its last key replaced by its first:
    # the rows are right, but the keys are one short of distinct.
    fill = tableaux._ssyt_rows

    def corrupted(lam, m):
        rows, keys, cuts = fill(lam, m)
        return rows, keys[:-1] + keys[:1], cuts

    tableaux._ssyt_rows = corrupted
    try:
        tableaux._keyed_domain.__wrapped__((2, 1), 3)
    finally:
        tableaux._ssyt_rows = fill


def keys_off_their_count():
    count = tableaux._syt_count
    tableaux._syt_count = lambda lam: count(lam) + 1
    try:
        tableaux._syt_keys.__wrapped__((3, 1))
    finally:
        tableaux._syt_count = count


T = Tableau(((1, 2), (3,)))
calls = {
    "strip_swap": lambda: gt_patterns.strip_swap(T, 1),
    "bounded_promotion": lambda: sliding.bounded_promotion(T, 2),
    "promotion": lambda: sliding.promotion(T, 3),
    "partial_evacuation": lambda: sliding.partial_evacuation(T, 3),
    "evacuation": lambda: sliding.evacuation(T),
    "interval_evacuation": lambda: sliding.interval_evacuation(T, (2, 3)),
    "bk_t_perm on corrupted keys": t_rule_on_corrupted_keys,
    "bk_t_perm on SYT": syt_rule_on_a_corrupted_domain,
    "bk_t_perm on SSYT": lambda: group_actions.bk_t_perm((2, 1), 3, 1),
    "domain count": domain_without_its_first_tableau,
    "key count": keys_off_their_count,
    "SSYT keys off their count": ssyt_keys_off_their_count,
    "promotion_perm on SYT": lambda: group_actions.promotion_perm((2, 1), None, 2),
    "promotion_perm on SSYT": lambda: group_actions.promotion_perm((2, 1), 3, 2),
    "act t2": lambda: group_actions.act(group_actions.parse_word("t2", 3), T),
    "act p2": lambda: group_actions.act(group_actions.parse_word("p2", 3), T),
    "act q2": lambda: group_actions.act(group_actions.parse_word("q2", 3), T),
    "act c[1,3]": lambda: group_actions.act(group_actions.parse_word("c[1,3]", 3), T),
    "act c[2,3]": lambda: group_actions.act(group_actions.parse_word("c[2,3]", 3), T),
}
for broken in (reversed_row, one_row):
    for module in (sliding, gt_patterns, group_actions):
        for name in ("_promote_rows", "_evacuate_rows", "_swap_rows"):
            if hasattr(module, name):
                setattr(module, name, broken)
    for name, call in calls.items():
        try:
            call()
        except AssertionError:
            continue
        print(broken.__name__, name)
"""


def test_kernel_post_conditions_hold_under_python_O():
    """With the row kernels replaced by a broken stand-in, every layer that
    runs them still raises, in an interpreter that strips assert statements;
    so do the SYT rule for t_k on corrupted keys, the SSYT t_k build on
    corrupted key positions (there with the working strip swap, so that
    only its image-key check can see it), the domain count and the SYT and
    SSYT key counts.
    One stand-in breaks semistandardness; the other keeps it and changes
    the shape, which only the same-shape half of ``_check_image`` (or, on a
    domain, the image-in-domain check) can see."""
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
