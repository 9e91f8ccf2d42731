"""Hecke algebra relations, KL basis characterization, a-function oracle."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkdim import (
    HeckeElement,
    LaurentPoly,
    Permutation,
    RankBoundError,
    a_function_definitional,
    a_value_of_permutation,
    bar_involution,
    kl_basis_element,
    kl_expand,
    multiply,
    rs_of_permutation,
)
from gkdim.hecke import _a_table, _polymat_mul

V = LaurentPoly.v
ONE = LaurentPoly.one()


def t(*ol):
    return HeckeElement.t(Permutation(ol))


def hecke_elements(n, max_terms=3):
    perm = st.permutations(list(range(1, n + 1))).map(Permutation)
    poly = st.dictionaries(
        st.integers(-3, 3), st.integers(-4, 4), max_size=3
    ).map(LaurentPoly)
    return st.lists(
        st.tuples(perm, poly), min_size=0, max_size=max_terms
    ).map(
        lambda pairs: sum(
            (HeckeElement.t(w).scale(p) for w, p in pairs),
            HeckeElement.zero(n),
        )
    )


class TestMultiplication:
    def test_quadratic_relation(self):
        s = t(2, 1)
        assert multiply(s, s) == s.scale(V(1) - V(-1)) + t(1, 2)

    def test_identity_acts_trivially(self):
        x = t(2, 3, 1).scale(V(2)) + t(1, 3, 2).scale(3)
        e = t(1, 2, 3)
        assert multiply(e, x) == x
        assert multiply(x, e) == x

    def test_lengths_add(self):
        s1 = t(2, 1, 3)
        s2 = t(1, 3, 2)
        assert multiply(s1, s2) == t(2, 3, 1)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            multiply(t(1, 2), t(1, 2, 3))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 4).flatmap(
            lambda n: st.tuples(
                hecke_elements(n), hecke_elements(n), hecke_elements(n)
            )
        )
    )
    def test_associative(self, triple):
        a, b, c = triple
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


class TestBarInvolution:
    def test_fixes_identity(self):
        assert bar_involution(t(1, 2)) == t(1, 2)

    def test_on_generator(self):
        s = t(2, 1)
        image = bar_involution(s)
        assert image == s + t(1, 2).scale(V(-1) - V(1))
        # the image is the inverse of T_s, per the quadratic relation
        assert multiply(image, s) == t(1, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4).flatmap(hecke_elements))
    def test_involutive(self, x):
        assert bar_involution(bar_involution(x)) == x

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 3).flatmap(
            lambda n: st.tuples(hecke_elements(n), hecke_elements(n))
        )
    )
    def test_ring_homomorphism(self, pair):
        a, b = pair
        assert bar_involution(multiply(a, b)) == multiply(
            bar_involution(a), bar_involution(b)
        )


class TestKLBasis:
    def test_identity(self):
        assert kl_basis_element(Permutation((1, 2))) == t(1, 2)

    def test_simple_reflection(self):
        c = kl_basis_element(Permutation((2, 1)))
        assert c == t(2, 1) + t(1, 2).scale(V(-1))
        assert bar_involution(c) == c

    def test_longest_s3(self):
        c = kl_basis_element(Permutation((3, 2, 1)))
        assert len(c.terms) == 6
        for w, p in c.terms.items():
            assert p == V(w.length() - 3)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_characterization(self, n):
        for ol in permutations(range(1, n + 1)):
            w = Permutation(ol)
            c = kl_basis_element(w)
            assert bar_invariant(c)
            assert c.coeff(w) == ONE
            for y, p in c.terms.items():
                if y != w:
                    assert p.only_negative_exponents()
                    assert y.length() < w.length()

    def test_rank_bound(self):
        with pytest.raises(RankBoundError):
            kl_basis_element(Permutation((6, 5, 4, 3, 2, 1)))
        with pytest.raises(RankBoundError):
            a_function_definitional(Permutation((1, 2, 3, 4, 5, 6)))
        with pytest.raises(RankBoundError):
            a_function_definitional(Permutation((1, 2, 3, 4, 5)), rank_bound=4)


def bar_invariant(c):
    return bar_involution(c) == c


class TestAFunction:
    def test_identity_is_zero(self):
        for n in (1, 2, 3, 4):
            assert a_function_definitional(Permutation.identity(n)) == 0

    def test_s2_generator(self):
        s = Permutation((2, 1))
        c = kl_basis_element(s)
        prod = kl_expand(multiply(c, c))
        assert prod == {s: V(1) + V(-1)}
        assert a_function_definitional(s) == 1

    def test_longest_s3_matches_length(self):
        w0 = Permutation((3, 2, 1))
        assert a_function_definitional(w0) == 3 == w0.length()

    @pytest.mark.parametrize("n", range(1, 5))
    def test_direct_table_agrees_with_recursion(self, n):
        """The bulk table must reproduce raw products C_x C_y expanded in
        the KL basis, and every h is fixed under the bar involution."""
        best = {}
        for x_ol in permutations(range(1, n + 1)):
            cx = kl_basis_element(Permutation(x_ol))
            for y_ol in permutations(range(1, n + 1)):
                prod = multiply(cx, kl_basis_element(Permutation(y_ol)))
                for z, h in kl_expand(prod).items():
                    assert h.bar() == h
                    d = h.degree
                    assert d is not None
                    best[z] = max(best.get(z, 0), d)
        table = _a_table(n)
        assert {w.one_line: v for w, v in best.items()} == table

    @pytest.mark.parametrize("n", range(1, 5))
    def test_matches_tableau_rule(self, n):
        for ol in permutations(range(1, n + 1)):
            sigma = Permutation(ol)
            assert a_function_definitional(sigma) == a_value_of_permutation(
                sigma
            ), ol

    @pytest.mark.parametrize("n", range(2, 5))
    def test_constant_on_shape_classes(self, n):
        by_shape = {}
        for ol in permutations(range(1, n + 1)):
            sigma = Permutation(ol)
            shape = rs_of_permutation(sigma)[0].shape()
            by_shape.setdefault(shape, set()).add(
                a_function_definitional(sigma)
            )
        for shape, values in by_shape.items():
            assert len(values) == 1, (shape, values)

    @pytest.mark.parametrize("n", range(2, 5))
    def test_invariant_under_inverse(self, n):
        for ol in permutations(range(1, n + 1)):
            sigma = Permutation(ol)
            assert a_function_definitional(sigma) == a_function_definitional(
                sigma.inverse()
            )


def dense_poly_matrices(size):
    """size x size matrices of small integer Laurent polynomials, each a
    dense list of rows of {degree: coeff} dicts (zero coefficients allowed)."""
    poly = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=3)
    row = st.lists(poly, min_size=size, max_size=size)
    return st.lists(row, min_size=size, max_size=size)


def to_sparse(dense):
    out = []
    for row in dense:
        sparse_row = {}
        for z, poly in enumerate(row):
            nonzero = {d: c for d, c in poly.items() if c}
            if nonzero:
                sparse_row[z] = nonzero
        out.append(sparse_row)
    return out


def dense_reference(a, b, minus=()):
    """a*b - sum of m*c, entry by entry over every (x, k, z)."""
    size = len(a)
    out = [[{} for _ in range(size)] for _ in range(size)]
    for x in range(size):
        for z in range(size):
            cell = out[x][z]
            for k in range(size):
                for d1, c1 in a[x][k].items():
                    for d2, c2 in b[k][z].items():
                        cell[d1 + d2] = cell.get(d1 + d2, 0) + c1 * c2
            for c, m in minus:
                for d, coeff in c[x][z].items():
                    cell[d] = cell.get(d, 0) - m * coeff
    return to_sparse(out)


class TestPolymatMul:
    """The sparse product behind the a-function table, against the dense
    definition of a product of polynomial matrices."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda size: st.tuples(
                dense_poly_matrices(size),
                dense_poly_matrices(size),
                st.lists(
                    st.tuples(dense_poly_matrices(size), st.integers(-3, 3)),
                    max_size=2,
                ),
            )
        )
    )
    def test_matches_dense_reference(self, case):
        a, b, minus = case
        got = _polymat_mul(
            to_sparse(a), to_sparse(b), [(to_sparse(c), m) for c, m in minus]
        )
        assert got == dense_reference(a, b, minus)

    def test_zero_row(self):
        # a zero row of a gives a zero row; a zero row of b contributes nothing
        a = [{}, {0: {1: 2}, 1: {0: 5}}]
        b = [{1: {-1: 3}}, {}]
        assert _polymat_mul(a, b) == [{}, {1: {0: 6}}]

    def test_degree_convolution(self):
        # [[v]] * [[1 + v]] == [[v + v^2]] as 1x1 polynomial matrices
        assert _polymat_mul([{0: {1: 1}}], [{0: {0: 1, 1: 1}}]) == [
            {0: {1: 1, 2: 1}}
        ]

    def test_cancelled_entries_are_dropped(self):
        # [[v]] * [[v^-1]] - 1 * [[1]] == 0: no empty cell may remain
        a = [{0: {1: 1}}]
        b = [{0: {-1: 1}}]
        assert _polymat_mul(a, b, [([{0: {0: 1}}], 1)]) == [{}]
