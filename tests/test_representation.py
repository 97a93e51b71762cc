"""Characters, decompositions, and the fold map."""

import math
import operator

import pytest

from cactus_tableaux import representation
from cactus_tableaux.representation import (
    HookShape,
    character_table,
    class_size,
    decompose_schutzenberger,
    delta_eigenspace_dims,
    fold_map,
    hook_length_dim,
    kostka_number,
    kostka_vector,
    mn_character,
    schutzenberger_perm_character,
    tilde_composition,
)
from cactus_tableaux.group_actions import bk_t_perm
from cactus_tableaux.shapes import (
    Composition,
    Partition,
    Permutation,
    enumerate_partitions,
    is_hook,
)
from cactus_tableaux.tableaux import Tableau, Tabloid, enumerate_syt
from cactus_tableaux.verify import (
    verify_fold_equivariance,
    verify_main_theorem,
    verify_two_one_case,
)

from helpers import character_table_oracle, kostka_oracle, perm_module_character


class TestHookShape:
    def test_arm_leg_tilde(self):
        h = HookShape.from_partition(Partition((5, 1, 1)))
        assert (h.arm, h.leg) == (4, 2)
        assert h.tilde == Composition((4, 2))
        assert tilde_composition(Partition((3, 1, 1))) == Composition((2, 2))

    def test_rejects_non_hooks(self):
        with pytest.raises(ValueError):
            HookShape.from_partition(Partition((2, 2)))

    def test_degenerate_hooks(self):
        assert tilde_composition(Partition((4,))) == Composition((3, 0))
        assert tilde_composition(Partition((1, 1, 1))) == Composition((0, 2))


def test_hook_length_dim_matches_enumeration():
    for n in range(1, 8):
        for lam in enumerate_partitions(n):
            assert hook_length_dim(lam) == len(enumerate_syt(lam))


class TestKostka:
    def test_diagonal_is_one(self):
        for n in range(1, 7):
            for mu in enumerate_partitions(n):
                assert kostka_number(mu, Composition(mu)) == 1

    def test_small_values(self):
        assert kostka_number(Partition((3, 1)), Composition((2, 2))) == 1
        assert kostka_number(Partition((1, 1, 1, 1)), Composition((2, 2))) == 0

    def test_matches_strip_chain_oracle(self):
        for n in range(1, 7):
            for mu in enumerate_partitions(n):
                for nu in enumerate_partitions(n):
                    assert kostka_number(mu, Composition(nu)) == kostka_oracle(
                        tuple(mu), tuple(nu)
                    )

    def test_two_part_contents_match_oracle(self):
        # Every K_{mu,(a,b)} that kostka_vector asks for on hooks of size
        # up to 12, degenerate hooks (a = 0 or b = 0) included.
        for size in range(12):
            for a in range(size + 1):
                nu = (a, size - a)
                for mu in enumerate_partitions(size):
                    assert kostka_number(mu, Composition(nu)) == kostka_oracle(
                        tuple(mu), nu
                    )


class TestCharacters:
    def test_trivial_rep(self):
        for rho in enumerate_partitions(5):
            assert mn_character(Partition((5,)), rho) == 1

    def test_cited_values(self):
        assert mn_character(Partition((3, 1)), Partition((2, 1, 1))) == 1
        assert mn_character(Partition((2, 2)), Partition((1, 1, 1, 1))) == 2

    def test_sign_rep(self):
        for rho in enumerate_partitions(4):
            sign = (-1) ** (4 - len(rho))
            assert mn_character(Partition((1, 1, 1, 1)), rho) == sign

    @pytest.mark.parametrize("m", range(1, 9))
    def test_table_matches_kostka_inversion_oracle(self, m):
        oracle = character_table_oracle(m)
        table = character_table(m)
        for mu in table.partitions:
            for rho in table.partitions:
                assert table.value(mu, rho) == oracle[tuple(mu)][tuple(rho)]

    @pytest.mark.parametrize("m", range(2, 8))
    def test_orthogonality(self, m):
        table = character_table(m)
        order = math.factorial(m)
        for i, mu in enumerate(table.partitions):
            for nu in table.partitions[i:]:
                inner = sum(
                    class_size(rho) * table.value(mu, rho) * table.value(nu, rho)
                    for rho in table.partitions
                )
                assert inner == (order if mu == nu else 0)

    @pytest.mark.parametrize("m", range(8, 13))
    def test_column_orthogonality(self, m):
        # sum over mu of chi^mu(rho) chi^mu(sigma) = z_rho delta_{rho,sigma},
        # with z_rho = m! / |class of rho|.
        table = character_table(m)
        columns = list(zip(*table.values))
        for j, (rho, col) in enumerate(zip(table.partitions, columns)):
            z = math.factorial(m) // class_size(rho)
            for k, other in enumerate(columns[j:], j):
                inner = sum(map(operator.mul, col, other))
                assert inner == (z if k == j else 0), (rho, table.partitions[k])

    def test_a_table_leaves_one_memo_entry_per_column(self):
        # From cold caches, the table of S_11 keeps one column per suffix
        # of a cycle type (and one bead map per size), not one entry per
        # (irreducible, suffix) pair.
        memos = [
            obj
            for obj in vars(representation).values()
            if hasattr(obj, "cache_info")
            and obj.__module__ == representation.__name__
        ]
        for memo in memos:
            memo.cache_clear()
        character_table(11)
        assert sum(memo.cache_info().currsize for memo in memos) < 300

    @pytest.mark.parametrize("m", range(1, 8))
    def test_dimension_sum_of_squares(self, m):
        table = character_table(m)
        assert sum(table.dimension(mu) ** 2 for mu in table.partitions) == math.factorial(m)

    def test_class_sizes_sum_to_group_order(self):
        for m in range(1, 8):
            assert sum(class_size(rho) for rho in enumerate_partitions(m)) == math.factorial(m)


class TestSchutzenbergerModule:
    def test_perm_character_identity_column(self):
        char = schutzenberger_perm_character(Partition((4, 1)))
        assert char[Partition((1, 1, 1, 1))] == 4

    def test_cited_fixed_point_counts(self):
        char = schutzenberger_perm_character(Partition((4, 1)))
        assert char[Partition((2, 1, 1))] == 2
        char = schutzenberger_perm_character(Partition((3, 1, 1)))
        assert char[Partition((2, 2))] == 2

    def test_two_one_rejected(self):
        with pytest.raises(ValueError):
            schutzenberger_perm_character(Partition((2, 1)))

    def test_perm_character_matches_tabloid_oracle(self):
        """Every column of every hook of size 3..12, against the character of
        the permutation module on tabloids of shape (arm, leg)."""
        for n in range(3, 13):
            for lam in enumerate_partitions(n):
                if not is_hook(lam) or lam == Partition((2, 1)):
                    continue
                tilde = tuple(tilde_composition(lam))
                char = schutzenberger_perm_character(lam)
                assert set(char) == set(enumerate_partitions(n - 1))
                for rho, value in char.items():
                    assert value == perm_module_character(tilde, tuple(rho)), (lam, rho)

    def test_perm_character_shares_cycle_blocks(self, monkeypatch):
        """At most one product per block t_{a+1} ... t_b of 1..11, plus one
        per cycle of length >= 2 of each class of S_11."""
        lam = Partition((7, 1, 1, 1, 1, 1))
        for k in range(1, 12):
            bk_t_perm(tuple(lam), None, k)
        calls = 0
        product = Permutation.__mul__

        def counted(self, other):
            nonlocal calls
            calls += 1
            return product(self, other)

        monkeypatch.setattr(Permutation, "__mul__", counted)
        schutzenberger_perm_character(lam)
        cycles = sum(
            sum(1 for part in rho if part >= 2) for rho in enumerate_partitions(11)
        )
        assert math.comb(11, 2) + cycles == 191
        assert calls <= 191

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (3, 2, 1)])
    def test_decompose_rejects_non_hooks(self, shape):
        # without the hook guard these end in an ArithmeticError
        with pytest.raises(ValueError, match="not a hook"):
            decompose_schutzenberger(shape)

    def test_decompose_cited_examples(self):
        assert decompose_schutzenberger(Partition((4, 1))).nonzero() == {
            Partition((4,)): 1,
            Partition((3, 1)): 1,
        }
        assert decompose_schutzenberger(Partition((3, 1, 1))).nonzero() == {
            Partition((4,)): 1,
            Partition((3, 1)): 1,
            Partition((2, 2)): 1,
        }

    def test_single_row_is_trivial_module(self):
        for n in (2, 3, 4, 5, 6):
            vec = decompose_schutzenberger(Partition((n,)))
            assert vec.nonzero() == {Partition((n - 1,)): 1}

    def test_main_theorem_small_hooks(self):
        for n in range(4, 8):
            for lam in enumerate_partitions(n):
                if not is_hook(lam):
                    continue
                report = verify_main_theorem(lam)
                assert report.status == "PASS", report.to_json()

    def test_kostka_vector_total_dimension(self):
        for lam in [(4, 1), (3, 1, 1), (2, 1, 1, 1)]:
            vec = kostka_vector(Partition(lam))
            assert vec.total_dimension() == hook_length_dim(Partition(lam))

    def test_two_one_case(self):
        assert verify_two_one_case().status == "PASS"

    def test_multiplicity_vector_json_drops_zeros(self):
        vec = decompose_schutzenberger(Partition((4, 1)))
        assert all(entry["mult"] for entry in vec.to_json()["mults"])


class TestFold:
    def test_paper_figure(self):
        T = Tableau(((1, 2, 3, 4, 5), (6,), (7,), (8,)))
        folded = fold_map(T)
        assert folded == Tabloid(
            shape=(4, 3),
            rows=(frozenset({1, 2, 3, 4}), frozenset({5, 6, 7})),
        )

    def test_rejects_non_standard(self):
        with pytest.raises(ValueError):
            fold_map(Tableau(((1, 1), (2,))))

    def test_equivariance_all_hooks(self):
        for n in range(2, 9):
            for lam in enumerate_partitions(n):
                if not is_hook(lam):
                    continue
                report = verify_fold_equivariance(lam)
                assert report.status == "PASS", report.to_json()


class TestDelta:
    def test_cited_dimension_pairs(self):
        assert delta_eigenspace_dims(Partition((2, 1))) == (1, 1)
        assert delta_eigenspace_dims(Partition((2, 2))) == (1, 1)
        assert delta_eigenspace_dims(Partition((3, 1, 1))) == (3, 3)

    def test_rejects_non_self_conjugate(self):
        with pytest.raises(ValueError):
            delta_eigenspace_dims(Partition((3, 1)))

    def test_dims_sum_to_tableau_count(self):
        for lam in [(2, 1), (2, 2), (3, 1, 1), (3, 2, 1), (4, 1, 1, 1)]:
            plus, minus = delta_eigenspace_dims(Partition(lam))
            assert plus + minus == hook_length_dim(Partition(lam))
