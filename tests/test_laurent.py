"""The reference LaurentPoly's arithmetic against plain {exponent:
coefficient} dicts."""

from hypothesis import given, settings
from hypothesis import strategies as st

from hecke_reference import LaurentPoly

# Zero coefficients included, so construction has something to drop.
coeff_dicts = st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), max_size=6)


def nonzero(d):
    return {e: c for e, c in d.items() if c}


def reference_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return nonzero(out)


def reference_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return nonzero(out)


def assert_value(p, expected):
    assert p.coeffs == expected
    assert 0 not in p.coeffs.values()
    # Equal values have equal hashes, however they were reached.
    q = LaurentPoly(expected)
    assert p == q and hash(p) == hash(q)


class TestArithmetic:
    @settings(max_examples=300, deadline=None)
    @given(coeff_dicts, coeff_dicts, st.integers(-3, 3))
    def test_matches_dict_reference(self, a, b, k):
        p, q = LaurentPoly(a), LaurentPoly(b)
        assert_value(p, nonzero(a))
        assert_value(p + q, reference_add(a, b))
        assert_value(p - q, reference_add(a, b, -1))
        assert_value(p * q, reference_mul(a, b))
        assert_value(p * k, reference_mul(a, {0: k}))
        assert_value(k * p, reference_mul(a, {0: k}))

    @settings(max_examples=100, deadline=None)
    @given(coeff_dicts)
    def test_difference_with_itself_is_zero(self, a):
        p = LaurentPoly(a)
        assert p - p == LaurentPoly.zero()
        assert not p - p
        assert (p - p).degree is None
