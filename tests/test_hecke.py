"""Hecke algebra relations, KL basis characterization, a-function oracle."""

import hashlib
import os
import subprocess
import sys
import threading
import time
from functools import lru_cache
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gkdim
from gkdim import (
    InvariantError,
    Permutation,
    RankBoundError,
    a_function_definitional,
    a_value_of_permutation,
    kl_basis_element,
    rs_of_permutation,
)
from gkdim.hecke import (
    _a_table,
    _cell_width,
    _check_kl_element,
    _kl_basis,
    _poly_text,
    _structure_matrices,
    _top_degree,
)
from hecke_reference import (
    HeckeElement,
    LaurentPoly,
    bar_involution,
    kl_element,
    kl_expand,
    multiply,
)

V = LaurentPoly.v
ONE = LaurentPoly.one()
V_MINUS_VINV = V(1) - V(-1)


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
        assert kl_basis_element(Permutation((1, 2))) == {Permutation((1, 2)): {0: 1}}
        assert kl_element(Permutation((1, 2))) == t(1, 2)

    def test_simple_reflection(self):
        s, e = Permutation((2, 1)), Permutation((1, 2))
        assert kl_basis_element(s) == {s: {0: 1}, e: {-1: 1}}
        c = kl_element(s)
        assert c == t(2, 1) + t(1, 2).scale(V(-1))
        assert bar_involution(c) == c

    def test_returns_the_callers_own_mapping(self):
        # Permutation keys and fresh coefficient dicts: changing one C_w
        # leaves the cached basis, and the next lookup, as they were.
        w = Permutation((3, 1, 2))
        c = kl_basis_element(w)
        assert all(type(y) is Permutation for y in c)
        expected = {y: dict(p) for y, p in c.items()}
        for p in c.values():
            p[7] = 1
        c.clear()
        assert kl_basis_element(w) == expected

    def test_longest_s3(self):
        c = kl_element(Permutation((3, 2, 1)))
        assert len(c.terms) == 6
        for w, p in c.terms.items():
            assert p == V(w.length() - 3)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_characterization(self, n):
        for ol in permutations(range(1, n + 1)):
            w = Permutation(ol)
            c = kl_element(w)
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


def right_mul_generator(elt, i):
    """elt * T_{s_i}."""
    out = {}

    def add(w, p):
        out[w] = out.get(w, LaurentPoly.zero()) + p

    for w, p in elt.terms.items():
        ws = w.times_s(i)
        add(ws, p)
        if ws.length() < w.length():
            add(w, p * V_MINUS_VINV)
    return HeckeElement(elt.n, out)


@lru_cache(maxsize=None)
def reference_kl_element(w):
    """C_w by the Permutation-keyed recursion that the int-indexed basis
    replaced: C_{w'} C_s with C_s = T_s + v^-1 along the last right descent,
    then the constant terms at shorter y stripped, longest first."""
    descents = w.right_descents()
    if not descents:
        return HeckeElement.t(w)
    i = descents[-1]
    shorter = reference_kl_element(w.times_s(i))
    d = right_mul_generator(shorter, i) + shorter.scale(V(-1))
    for length in range(w.length() - 1, -1, -1):
        for y in [y for y in d.terms if y.length() == length]:
            c = d.terms[y][0]
            if c:
                d = d - reference_kl_element(y).scale(c)
    assert d.coeff(w) == ONE
    assert all(p.only_negative_exponents() for y, p in d.terms.items() if y != w)
    return d


class TestKLBasisAgainstReference:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_reference_recursion(self, n):
        for ol in permutations(range(1, n + 1)):
            w = Permutation(ol)
            assert kl_element(w) == reference_kl_element(w), ol

    @pytest.mark.parametrize("n", range(1, 6))
    def test_basis_and_mu_are_non_negative(self, n):
        # The positivity that _cell_width's bound rests on.
        kl = _kl_basis(n)
        assert all(c >= 0 for cw in kl.basis for p in cw.values()
                   for c in p.values())
        assert all(m >= 0 for pairs in kl.mu for _, m in pairs)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_star_is_conjugation_by_longest(self, n):
        kl = _kl_basis(n)
        w0 = Permutation.longest(n)
        assert [kl.perms[k] for k in kl.star] == [
            w0.compose(w).compose(w0).one_line for w in map(Permutation, kl.perms)
        ]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_inverse_is_the_group_inverse(self, n):
        kl = _kl_basis(n)
        assert [kl.perms[k] for k in kl.inverse] == [
            w.inverse().one_line for w in map(Permutation, kl.perms)
        ]

    def test_index_follows_length_order(self):
        kl = _kl_basis(4)
        keys = [(Permutation(w).length(), w) for w in kl.perms]
        assert keys == sorted(keys) and len(keys) == 24
        assert all(kl.index[w] == k for k, w in enumerate(kl.perms))
        for k, w in enumerate(map(Permutation, kl.perms)):
            assert [kl.perms[j] for j in kl.rmul[k]] == [
                w.times_s(i).one_line for i in range(1, 4)
            ]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_records_descent_and_mu(self, n):
        kl = _kl_basis(n)
        for k in range(1, len(kl.perms)):
            w = Permutation(kl.perms[k])
            assert kl.descent[k] + 1 == max(w.right_descents())
            v_inverse_terms = [
                (kl.index[y.one_line], p[-1])
                for y, p in kl_basis_element(w).items() if p.get(-1)
            ]
            assert sorted(kl.mu[k]) == sorted(v_inverse_terms), w.one_line

    def test_invariant_failures_name_the_element(self):
        perms = _kl_basis(2).perms
        with pytest.raises(RuntimeError, match=r"w=\(2, 1\).*not 1") as info:
            _check_kl_element(perms, 1, {1: {0: 2}, 0: {-1: 1}})
        assert info.value.to_json()["code"] == "invariant-violated"
        assert info.value.details["w"] == [2, 1]
        with pytest.raises(RuntimeError, match=r"w=\(2, 1\).*y=\(1, 2\)") as info:
            _check_kl_element(perms, 1, {1: {0: 1}, 0: {0: 1, -1: 1}})
        assert info.value.details["y"] == [1, 2]
        assert info.value.details["max_exponent"] == 0

    def test_invariant_checks_survive_optimize(self):
        code = (
            "from gkdim.hecke import _check_kl_element, _kl_basis\n"
            "try:\n"
            "    _check_kl_element(_kl_basis(2).perms, 1, {1: {0: 1}, 0: {1: 1}})\n"
            "except RuntimeError:\n"
            "    print('raised')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(gkdim.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env,
            capture_output=True, text=True, check=True,
        ).stdout
        assert out == "raised\n"


def permutation_indexing(n):
    """(perms, index, rmul, star, inverse) built with Permutation methods,
    as the oracle built them before it indexed S_n by one-line tuples."""
    perms = tuple(sorted(map(Permutation, permutations(range(1, n + 1))),
                         key=Permutation.length))
    index = {w.one_line: k for k, w in enumerate(perms)}
    rmul = tuple(
        tuple(index[w.times_s(i).one_line] for i in range(1, n)) for w in perms
    )
    w0 = Permutation.longest(n)
    star = tuple(index[w0.compose(w).compose(w0).one_line] for w in perms)
    inverse = tuple(index[w.inverse().one_line] for w in perms)
    return tuple(w.one_line for w in perms), index, rmul, star, inverse


# sha256 of repr(sorted(_a_table(n).items())) at ranks 1-6, as the oracle
# gave them when S_n was indexed by Permutation objects.
A_TABLE_SHA256 = {
    1: "3376d8b73b799cc2442800a49f19ed6318aa95e9469eb39fe60f48539bf05ccd",
    2: "b197a21f75b2ec4e0599d7ba1fe7a81f89435f2066f02be3e0556383b3871440",
    3: "d16a5abb045d503eb3aee60d467b15ad2e952ad75c1ca0dc6f0893ed5ac3f84a",
    4: "9163e011613b1dea4d2f751ad09a449746c51dad1bef495dec2a247e231bd610",
    5: "5267028356f83a115dada8fc778a9638abb89b93a404847da3f28a3187bdad85",
    6: "34a04d21a27d78e6852af62e17048ad7c5bc98898eb6b427b8a328606cb9c7b9",
}


class TestOneLineIndexing:
    """The tuple-indexed basis against the Permutation-method construction
    it replaced."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_permutation_methods(self, n):
        kl = _kl_basis(n)
        perms, index, rmul, star, inverse = permutation_indexing(n)
        assert kl.perms == perms
        assert kl.index == index
        assert kl.rmul == rmul
        assert kl.star == star
        assert kl.inverse == inverse

    @pytest.mark.parametrize("n", range(1, 7))
    def test_a_table_unchanged(self, n):
        table = _a_table(n)
        assert all(type(w) is tuple for w in table)
        digest = hashlib.sha256(repr(sorted(table.items())).encode()).hexdigest()
        assert digest == A_TABLE_SHA256[n]


# Corrupted C_w at w = (3, 2, 1), position 5 of S_3, and the message and
# details _check_kl_element gave when it formatted with LaurentPoly.
CORRUPTED = [
    ({5: {0: 2}, 0: {-1: 1}},
     "C_w for w=(3, 2, 1): coefficient of T_w is 2, not 1",
     {"w": [3, 2, 1], "coefficient": "2", "expected": "1"}),
    ({5: {0: -1, 1: 3, -2: -1}},
     "C_w for w=(3, 2, 1): coefficient of T_w is 3*v - 1 - v^-2, not 1",
     {"w": [3, 2, 1], "coefficient": "3*v - 1 - v^-2", "expected": "1"}),
    ({4: {0: 1}},
     "C_w for w=(3, 2, 1): coefficient of T_w is 0, not 1",
     {"w": [3, 2, 1], "coefficient": "0", "expected": "1"}),
    ({5: {0: 1, 2: 0}},
     "C_w for w=(3, 2, 1): coefficient of T_w is 1, not 1",
     {"w": [3, 2, 1], "coefficient": "1", "expected": "1"}),
    ({5: {}},
     "C_w for w=(3, 2, 1): coefficient of T_w is 0, not 1",
     {"w": [3, 2, 1], "coefficient": "0", "expected": "1"}),
    ({5: {0: 1}, 2: {0: 1, -1: 1}},
     "C_w for w=(3, 2, 1): coefficient 1 + v^-1 of T_y for y=(2, 1, 3) has "
     "a non-negative exponent",
     {"w": [3, 2, 1], "y": [2, 1, 3], "coefficient": "1 + v^-1",
      "max_exponent": 0}),
    ({5: {0: 1}, 1: {1: -1, 0: 0, -3: 5}},
     "C_w for w=(3, 2, 1): coefficient -v + 5*v^-3 of T_y for y=(1, 3, 2) "
     "has a non-negative exponent",
     {"w": [3, 2, 1], "y": [1, 3, 2], "coefficient": "-v + 5*v^-3",
      "max_exponent": 1}),
]

# Coefficients 0, +-1 and larger ones, at exponents around 0.
laurent_dicts = st.dictionaries(
    st.integers(-4, 4),
    st.sampled_from([0, 1, -1]) | st.integers(-40, 40),
    max_size=7,
)


class TestPolyText:
    """_check_kl_element's formatter against LaurentPoly's text, which it
    replaced."""

    @pytest.mark.parametrize("p, text", [
        ({}, "0"), ({0: 0}, "0"), ({0: 5}, "5"), ({0: -3}, "-3"),
        ({1: 1}, "v"), ({-1: 1}, "v^-1"), ({1: -1}, "-v"),
        ({-1: -1}, "-v^-1"), ({2: 7, -2: -12}, "7*v^2 - 12*v^-2"),
        ({-1: 1, 0: -1, 1: 1}, "v - 1 + v^-1"),
    ])
    def test_examples(self, p, text):
        assert _poly_text(p) == text == repr(LaurentPoly(p))

    @settings(max_examples=400, deadline=None)
    @given(laurent_dicts)
    def test_matches_laurent_poly(self, p):
        assert _poly_text(p) == str(LaurentPoly(p))

    @pytest.mark.parametrize("cw, message, details", CORRUPTED)
    def test_invariant_messages_unchanged(self, cw, message, details):
        with pytest.raises(InvariantError) as info:
            _check_kl_element(_kl_basis(3).perms, 5, cw)
        assert str(info.value) == message
        assert info.value.details == details


class TestAFunction:
    def test_identity_is_zero(self):
        for n in (1, 2, 3, 4):
            assert a_function_definitional(Permutation.identity(n)) == 0

    def test_s2_generator(self):
        s = Permutation((2, 1))
        c = kl_element(s)
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
            cx = kl_element(Permutation(x_ol))
            for y_ol in permutations(range(1, n + 1)):
                prod = multiply(cx, kl_element(Permutation(y_ol)))
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

    @pytest.mark.parametrize("n", range(2, 6))
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

    def test_rank6_matches_tableau_rule(self):
        # About 1 s.  Of the tests, only this one fails when _a_table drops
        # its z* or its (z^-1)* stand-in column: below rank 6 the other
        # stand-ins make up for either.
        for ol in permutations(range(1, 7)):
            sigma = Permutation(ol)
            assert a_function_definitional(
                sigma, rank_bound=6
            ) == a_value_of_permutation(sigma), ol

    @pytest.mark.rank6
    def test_rank6_peak_memory(self):
        """The rank-6 oracle peaks below 100 MB of resident memory.

        A fresh child runs a_function_definitional over all of S_6 and
        prints its own peak, VmHWM from /proc/self/status; where that file
        does not exist the test is skipped.  ru_maxrss would not do: Linux
        copies the parent's peak into a spawned child's ru_maxrss, so the
        child would report at least this test process's peak.  Building one
        table row per orbit of x -> w0 x w0 brought the child's VmHWM from
        about 141 MB to about 79 MB, and building only the pairs with
        l(y) <= l(x) to about 63 MB; 100 MB fails a return to building
        every row, with room for interpreter and allocator differences."""
        if not Path("/proc/self/status").exists():
            pytest.skip("no /proc/self/status to read VmHWM from")
        code = (
            "from itertools import permutations\n"
            "import gkdim\n"
            "for ol in permutations(range(1, 7)):\n"
            "    gkdim.a_function_definitional(gkdim.Permutation(ol), rank_bound=6)\n"
            "with open('/proc/self/status') as f:\n"
            "    print(next(l.split()[1] for l in f if l.startswith('VmHWM:')))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(gkdim.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True, check=True,
        ).stdout
        peak_mb = int(out) / 1024
        assert peak_mb < 100, f"rank-6 oracle peaked at {peak_mb:.1f} MB"

    @pytest.mark.parametrize("n", range(2, 6))
    def test_invariant_under_inverse(self, n):
        for ol in permutations(range(1, n + 1)):
            sigma = Permutation(ol)
            assert a_function_definitional(sigma) == a_function_definitional(
                sigma.inverse()
            )


def reference_polymat_mul(a, b, minus=()):
    """a*b - sum of m*c over (c, m) in minus, for sparse matrices of Laurent
    polynomials: row x of a*b is sum over k of a[x][k] * b[k]."""
    out = []
    for x, row in enumerate(a):
        acc = {}
        for k, p in row.items():
            for z, q in b[k].items():
                cell = acc.get(z)
                if cell is None:
                    cell = acc[z] = {}
                for d1, c1 in p.items():
                    for d2, c2 in q.items():
                        d = d1 + d2
                        cell[d] = cell.get(d, 0) + c1 * c2
        for c, m in minus:
            for z, poly in c[x].items():
                cell = acc.setdefault(z, {})
                for d, coeff in poly.items():
                    cell[d] = cell.get(d, 0) - m * coeff
        nonzero = {}
        for z, poly in acc.items():
            poly = {d: coeff for d, coeff in poly.items() if coeff}
            if poly:
                nonzero[z] = poly
        out.append(nonzero)
    return out


def reference_matrices(n):
    """Yield (k, R_{w_k}) with {degree: coeff} cells, as the table was built
    before its cells were packed: R_{y's} = R_{y'} R_s - sum of
    mu(z,y') R_z over zs < z, by sparse products against one matrix R_s per
    generator, each R_y dropped after the last product that reads it.  Each
    R_y is built along the first right descent of y, where the oracle uses
    the last: R_y does not depend on the descent."""
    kl = _kl_basis(n)
    rmul = kl.rmul
    size = len(kl.perms)
    mu = [
        [(z, p[-1]) for z, p in cw.items() if z != k and p.get(-1)]
        for k, cw in enumerate(kl.basis)
    ]
    r_s = []
    for i in range(n - 1):
        rows = []
        for x in range(size):
            xs = rmul[x][i]
            if xs < x:
                rows.append({x: {-1: 1, 1: 1}})
            else:
                row = {xs: {0: 1}}
                for z, m in mu[x]:
                    if rmul[z][i] < z:
                        row[z] = {0: m}
                rows.append(row)
        r_s.append(rows)
    steps = []
    last_read = {}
    for k in range(1, size):
        i = min(j for j, ws in enumerate(rmul[k]) if ws < k)
        shorter = rmul[k][i]
        minus = [(z, m) for z, m in mu[shorter] if rmul[z][i] < z]
        steps.append((k, i, shorter, minus))
        last_read[shorter] = k
        for z, _ in minus:
            last_read[z] = k
    r = [None] * size
    r[0] = [{x: {0: 1}} for x in range(size)]
    yield 0, r[0]
    for k, i, shorter, minus in steps:
        mat = reference_polymat_mul(
            r[shorter], r_s[i], [(r[z], m) for z, m in minus]
        )
        if k in last_read:
            r[k] = mat
        for y in (shorter, *(z for z, _ in minus)):
            if last_read[y] == k:
                r[y] = None
        yield k, mat


@lru_cache(maxsize=None)
def reference_a_table(n):
    """a(z) as the largest degree in column z over every reference R_y."""
    kl = _kl_basis(n)
    best = [-1] * len(kl.perms)
    for _, mat in reference_matrices(n):
        for row in mat:
            for z, poly in row.items():
                best[z] = max(best[z], max(poly))
    return {w: best[k] for k, w in enumerate(kl.perms)}


@lru_cache(maxsize=None)
def reference_largest_coefficient(n):
    return max(
        abs(c)
        for _, mat in reference_matrices(n)
        for row in mat
        for poly in row.values()
        for c in poly.values()
    )


@lru_cache(maxsize=None)
def lengths(n):
    return [Permutation(w).length() for w in _kl_basis(n).perms]


def built_rows(kl, k):
    """The rows x of R_{w_k} that the table builds: x <= x* and
    l(x) >= l(w_k), in increasing order."""
    length = lengths(len(kl.perms[0]))
    return [x for x, xs in enumerate(kl.star)
            if x <= xs and length[x] >= length[k]]


def pack(poly, b, d):
    """The packed cell p(2^b) 2^(b d) of p = {degree: coeff}."""
    return sum(c << (b * (e + d)) for e, c in poly.items())


def unpack(cell, b, d):
    """{degree: coeff} from a packed cell, reading balanced base-2^b digits;
    exact while every |coeff| < 2^(b-1)."""
    out = {}
    e = -d
    while cell:
        c = cell & ((1 << b) - 1)
        if c >= 1 << (b - 1):
            c -= 1 << b
        if c:
            out[e] = c
        cell = (cell - c) >> b
        e += 1
    return out


class TestBuiltOncePerRank:
    """A caller that arrives while another thread makes the first build of
    a rank waits for that build and gets the same object back."""

    @staticmethod
    def builds_from_two_threads(monkeypatch, hook, get):
        builds, results = [], []
        entered = threading.Event()
        original = getattr(gkdim.hecke, hook)

        def slow(*args):
            builds.append(args)
            entered.set()
            time.sleep(0.2)
            return original(*args)

        monkeypatch.setattr(gkdim.hecke, hook, slow)
        threads = [threading.Thread(target=lambda: results.append(get()))
                   for _ in range(2)]
        threads[0].start()
        assert entered.wait(10)
        threads[1].start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
        assert results[0] is results[1]
        return len(builds)

    def test_a_table(self, monkeypatch):
        _a_table.cache_clear()
        assert self.builds_from_two_threads(
            monkeypatch, "_cell_width", lambda: _a_table(4)) == 1

    def test_kl_basis(self, monkeypatch):
        # itertools.permutations runs once per build of the KL basis.
        _kl_basis.cache_clear()
        assert self.builds_from_two_threads(
            monkeypatch, "permutations", lambda: _kl_basis(4)) == 1


class TestTableAgainstReference:
    """The packed table against the dict-celled builder it replaced."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_reference_table(self, n):
        assert _a_table(n) == reference_a_table(n)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_cell_matches_reference(self, n):
        # R_{w_k} holds the reference rows x with x <= x* and
        # l(x) >= l(w_k), and best the longest cell of each column.
        kl = _kl_basis(n)
        b, d = _cell_width(kl), n * (n - 1) // 2
        best = [0] * len(kl.perms)
        longest = [0] * len(kl.perms)
        got = _structure_matrices(kl, b, best)
        for (k, mat), (k_ref, ref) in zip(got, reference_matrices(n), strict=True):
            assert k == k_ref
            rows = built_rows(kl, k)
            decoded = [
                {z: unpack(cell, b, d) for z, cell in row.items()} for row in mat
            ]
            assert decoded == [ref[x] for x in rows], kl.perms[k]
            for row in mat:
                for z, cell in row.items():
                    longest[z] = max(longest[z], cell.bit_length())
        assert best == longest

    @pytest.mark.parametrize(
        "n, rows", [(1, 1), (2, 2), (3, 4), (4, 16), (5, 64), (6, 384)]
    )
    def test_builds_one_row_per_star_orbit(self, n, rows):
        # (n! + number of x with x* = x) / 2 rows in R_e, the first matrix
        # built; every later R_y holds a suffix of them.
        kl = _kl_basis(n)
        _, identity = next(
            _structure_matrices(kl, _cell_width(kl), [0] * len(kl.perms)))
        assert len(identity) == rows

    @pytest.mark.parametrize("n", range(1, 7))
    def test_built_pairs_and_their_images_cover_every_pair(self, n):
        # The pairs (x, y) built, with their images (x*, y*) and
        # (y^-1, x^-1) and the image of each under the other, are all of
        # S_n x S_n, so every h_{x,y,z} is a built one, read at z, z*,
        # z^-1 or (z^-1)*.
        kl = _kl_basis(n)
        star, inverse = kl.star, kl.inverse
        size = len(kl.perms)
        b = _cell_width(kl)
        covered = bytearray(size * size)
        for y, mat in _structure_matrices(kl, b, [0] * size):
            rows = built_rows(kl, y)
            assert len(mat) == len(rows)
            for x in rows:
                for u, v in ((x, y), (inverse[y], inverse[x])):
                    covered[u * size + v] = 1
                    covered[star[u] * size + star[v]] = 1
        assert all(covered)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_coefficient_bound_covers_reference(self, n):
        b = _cell_width(_kl_basis(n))
        assert 1 << (b - 2) > reference_largest_coefficient(n)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_structure_constants_are_non_negative(self, n):
        # The positivity that _cell_width's bound rests on.
        assert all(
            c >= 0
            for _, mat in reference_matrices(n)
            for row in mat
            for poly in row.values()
            for c in poly.values()
        )

    @pytest.mark.parametrize("n", range(1, 6))
    def test_structure_constants_commute_with_star(self, n):
        # h_{x*,y,z} = h_{x,y*,z*}, which lets the table build only the rows
        # x <= x* and read the others off column z*: row x* of R_y with its
        # columns starred is row x of R_{y*}.
        star = _kl_basis(n).star
        waiting = {}
        for y, mat in reference_matrices(n):
            starred = [{star[z]: p for z, p in mat[xs].items()} for xs in star]
            if star[y] == y:
                assert starred == mat
            elif star[y] > y:
                waiting[star[y]] = starred
            else:
                assert waiting.pop(y) == mat
        assert not waiting

    @pytest.mark.parametrize("n", range(1, 6))
    def test_structure_constants_commute_with_inverse(self, n):
        # h_{y^-1,x^-1,z^-1} = h_{x,y,z}, which lets the table build only
        # the pairs with l(y) <= l(x) and read the others off column z^-1:
        # row x of R_y with its columns inverted is row y^-1 of R_{x^-1}.
        inverse = _kl_basis(n).inverse
        table = dict(reference_matrices(n))
        for y, mat in table.items():
            for x, row in enumerate(mat):
                inverted = {inverse[z]: p for z, p in row.items()}
                assert inverted == table[inverse[x]][inverse[y]], (x, y)

    @pytest.mark.parametrize("n", (4, 5))
    def test_cell_width_is_tight(self, n):
        # The bound c^2 is 7 and 9 bits above the true largest coefficient
        # at ranks 4 and 5; a looser bound widens every packed cell.
        b = _cell_width(_kl_basis(n))
        assert b - 2 <= reference_largest_coefficient(n).bit_length() + 10

    def test_largest_coefficients(self):
        assert [reference_largest_coefficient(n) for n in (4, 5)] == [7, 36]

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(st.integers(3, 64), st.integers(0, 20)).flatmap(
            lambda bd: st.tuples(
                st.just(bd),
                st.dictionaries(
                    st.integers(-bd[1], bd[1]),
                    st.integers(-(2 ** (bd[0] - 2) - 1), 2 ** (bd[0] - 2) - 1),
                    max_size=2 * bd[1] + 1,
                ),
            )
        )
    )
    def test_packing_reads_off_top_degree(self, case):
        (b, d), poly = case
        poly = {e: c for e, c in poly.items() if c}
        cell = pack(poly, b, d)
        assert (cell != 0) == bool(poly)
        if poly:
            assert _top_degree(cell.bit_length(), b, d) == max(poly)
            assert unpack(cell, b, d) == poly


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
        got = reference_polymat_mul(
            to_sparse(a), to_sparse(b), [(to_sparse(c), m) for c, m in minus]
        )
        assert got == dense_reference(a, b, minus)

    def test_zero_row(self):
        # a zero row of a gives a zero row; a zero row of b contributes nothing
        a = [{}, {0: {1: 2}, 1: {0: 5}}]
        b = [{1: {-1: 3}}, {}]
        assert reference_polymat_mul(a, b) == [{}, {1: {0: 6}}]

    def test_degree_convolution(self):
        # [[v]] * [[1 + v]] == [[v + v^2]] as 1x1 polynomial matrices
        assert reference_polymat_mul([{0: {1: 1}}], [{0: {0: 1, 1: 1}}]) == [
            {0: {1: 1, 2: 1}}
        ]

    def test_cancelled_entries_are_dropped(self):
        # [[v]] * [[v^-1]] - 1 * [[1]] == 0: no empty cell may remain
        a = [{0: {1: 1}}]
        b = [{0: {-1: 1}}]
        assert reference_polymat_mul(a, b, [([{0: {0: 1}}], 1)]) == [{}]
