"""Group structure, RS pairs, parabolic longest elements, sorting weights."""

from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkdim import (
    NotIntegralError,
    Permutation,
    Shape,
    Weight,
    a_value_of_permutation,
    minimal_antidominant_permutation,
    parabolic_longest,
    rs_of_permutation,
)
from gkdim.permutations import _inverse, _inversions
from helpers import check_value_error, check_value_type


def perms(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    ).map(Permutation)


def perm_pairs(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.permutations(list(range(1, n + 1))),
            st.permutations(list(range(1, n + 1))),
        )
    ).map(lambda t: (Permutation(t[0]), Permutation(t[1])))


def brute_inversions(ol):
    return sum(1 for i, j in combinations(range(len(ol)), 2) if ol[i] > ol[j])


def all_shapes(n):
    """All partitions of n, as column-size tuples."""
    if n == 0:
        yield ()
        return
    def rec(rest, most):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, most), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail
    yield from rec(n, n)


class TestGroupStructure:
    def test_length_example(self):
        ol = (3, 4, 2, 1)
        assert brute_inversions(ol) == 5
        assert Permutation(ol).length() == 5

    def test_identity_inverse(self):
        e = Permutation.identity(4)
        assert e.inverse() == e
        assert e.length() == 0

    def test_longest_length(self):
        assert Permutation.longest(4).length() == 6

    def test_invalid(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 2))
        with pytest.raises(ValueError):
            Permutation.identity(2).compose(Permutation.identity(3))

    @pytest.mark.parametrize("i", [0, -1, 4])
    def test_call_index(self, i):
        check_value_error(lambda: Permutation([2, 3, 1])(i),
                          f"position index must be in 1..3, got {i}")

    @pytest.mark.parametrize("i", [0, -1, 3])
    def test_times_s_index(self, i):
        check_value_error(lambda: Permutation([2, 3, 1]).times_s(i),
                          f"generator index must be in 1..2, got {i}")

    @pytest.mark.parametrize("i", [0, -1, 3, 5])
    def test_s_times_index(self, i):
        check_value_error(lambda: Permutation([2, 3, 1]).s_times(i),
                          f"generator index must be in 1..2, got {i}")

    @pytest.mark.parametrize("i,j", [(0, 2), (2, 0), (4, 1), (1, 4)])
    def test_transposition_index(self, i, j):
        bad = i if not 1 <= i <= 3 else j
        check_value_error(lambda: Permutation.transposition(3, i, j),
                          f"position index must be in 1..3, got {bad}")

    def test_contract(self):
        check_value_type(Permutation, ((2, 3, 1),), {"one_line": (2, 3, 1)},
                         "Permutation(2, 3, 1)")

    def test_never_equal_to_a_tuple(self):
        assert Permutation([1]) != (1,)
        assert not Permutation([1]) == (1,)

    def test_act_on_size_mismatch(self):
        check_value_error(lambda: Permutation([2, 1]).act_on(Weight([1, 2, 3])),
                          "size mismatch")

    def test_indices_at_the_ends(self):
        a = Permutation([2, 3, 1])
        assert (a(1), a(3)) == (2, 1)
        assert a.times_s(1).one_line == (3, 2, 1)
        assert a.times_s(2).one_line == (2, 1, 3)
        assert a.s_times(1).one_line == (1, 3, 2)
        assert a.s_times(2).one_line == (3, 2, 1)
        assert Permutation.transposition(3, 1, 3).one_line == (3, 2, 1)

    @given(perms())
    def test_one_line_primitives(self, a):
        # Permutation.length and .inverse and the oracle's KL basis share
        # these two.
        assert _inversions(a.one_line) == brute_inversions(a.one_line)
        inv = _inverse(a.one_line)
        assert tuple(a(v) for v in inv) == tuple(range(1, a.n + 1))
        assert a.inverse().one_line == inv

    @given(perm_pairs())
    def test_compose_lengths(self, pair):
        a, b = pair
        ab = a * b
        assert ab.one_line == tuple(a(b(i)) for i in range(1, a.n + 1))
        assert a * a.inverse() == Permutation.identity(a.n)
        assert a.length() == brute_inversions(a.one_line)
        assert a.length() == a.inverse().length()

    @given(perms())
    def test_reduced_word(self, a):
        word = a.reduced_word()
        assert len(word) == a.length()
        acc = Permutation.identity(a.n)
        for i in word:
            acc = acc.times_s(i)
        assert acc == a


class TestRSOnPermutations:
    def test_worked_example(self):
        p, q = rs_of_permutation(Permutation((3, 4, 2, 1)))
        assert p.rows == ((1, 4), (2,), (3,))
        assert q.rows == ((1, 2), (3,), (4,))

    def test_identity_single_row(self):
        p, q = rs_of_permutation(Permutation.identity(5))
        assert p.rows == q.rows == ((1, 2, 3, 4, 5),)

    def test_longest_single_column(self):
        p, q = rs_of_permutation(Permutation.longest(4))
        assert p.rows == q.rows == ((1,), (2,), (3,), (4,))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_p_equals_q_of_inverse(self, n):
        for ol in permutations(range(1, n + 1)):
            sigma = Permutation(ol)
            p, q = rs_of_permutation(sigma)
            p_inv, q_inv = rs_of_permutation(sigma.inverse())
            assert p == q_inv and q == p_inv
            assert p.shape() == p_inv.shape()
            assert a_value_of_permutation(sigma) == a_value_of_permutation(
                sigma.inverse()
            )


class TestAValue:
    def test_identity(self):
        assert a_value_of_permutation(Permutation.identity(5)) == 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_longest(self, n):
        assert a_value_of_permutation(Permutation.longest(n)) == n * (n - 1) // 2

    def test_simple_reflection(self):
        assert a_value_of_permutation(Permutation((2, 1, 3))) == 1


class TestParabolicLongest:
    def test_single_column_gives_longest(self):
        for n in range(1, 6):
            assert parabolic_longest(Shape((n,)), n) == Permutation.longest(n)

    def test_single_row_gives_identity(self):
        assert parabolic_longest(Shape((1, 1, 1)), 3) == Permutation.identity(3)

    def test_two_blocks(self):
        sigma = parabolic_longest(Shape((2, 2)), 4)
        assert sigma == Permutation((2, 1, 4, 3))
        assert sigma.length() == 2 == Shape((2, 2)).column_statistic()

    def test_box_count_mismatch(self):
        with pytest.raises(ValueError):
            parabolic_longest(Shape((2, 1)), 4)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_shape_and_length_realized(self, n):
        for cols in all_shapes(n):
            s = Shape(cols)
            sigma = parabolic_longest(s, n)
            p, _ = rs_of_permutation(sigma)
            assert p.shape() == s
            assert sigma.length() == s.column_statistic()
            # column i of the insertion tableau is a consecutive integer block
            prefix = 0
            for i, c in enumerate(cols, start=1):
                assert p.column(i) == tuple(range(prefix + 1, prefix + c + 1))
                prefix += c


class TestMinimalAntidominant:
    def test_swap(self):
        assert minimal_antidominant_permutation(Weight([2, 1])) == Permutation(
            (2, 1)
        )

    def test_ties_stay_identity(self):
        assert minimal_antidominant_permutation(
            Weight([1, 1])
        ) == Permutation.identity(2)

    def test_worked_example_with_brute_force(self):
        w = Weight([3, 2, -1, -1, 0])
        sigma = minimal_antidominant_permutation(w)
        assert sigma == Permutation((5, 4, 1, 2, 3))
        assert sigma.act_on(w).is_antidominant()
        best = min(
            (
                Permutation(ol)
                for ol in permutations(range(1, 6))
                if Permutation(ol).act_on(w).is_antidominant()
            ),
            key=lambda s: s.length(),
        )
        assert best.length() == sigma.length()

    def test_non_integral_rejected(self):
        from fractions import Fraction

        with pytest.raises(NotIntegralError):
            minimal_antidominant_permutation(Weight([1, Fraction(1, 2)]))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=6))
    def test_minimality_and_sorting(self, entries):
        w = Weight(entries)
        sigma = minimal_antidominant_permutation(w)
        moved = sigma.act_on(w)
        assert list(moved.entries) == sorted(moved.entries)
        assert moved.is_antidominant()
        # brute-force minimal length over everything that antidominates w
        best = min(
            Permutation(ol).length()
            for ol in permutations(range(1, w.n + 1))
            if Permutation(ol).act_on(w).is_antidominant()
        )
        assert sigma.length() == best
        # stabilizing transpositions lengthen sigma
        for i in range(1, w.n + 1):
            for j in range(i + 1, w.n + 1):
                if w.entries[i - 1] == w.entries[j - 1]:
                    t = Permutation.transposition(w.n, i, j)
                    assert (sigma * t).length() > sigma.length()
