"""Weight parsing, shift equivalence and the dominance predicates."""

import re
import sys
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkdim import (
    LengthMismatchError,
    ParseError,
    PQContext,
    Weight,
    add_z_zeta,
    is_pq_dominant,
    parse_rational,
    parse_weight,
    unitary_gkdim,
    unitary_interval,
)
from gkdim.weights import congruence_key, pq_dominance_violation

from helpers import check_value_error, check_value_type, random_dominant_weight

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
weights = st.lists(rationals, min_size=1, max_size=9).map(Weight)

# Ints and Fractions drawn from a small pool, so that entries repeat and
# several share a class modulo Z.
mixed_entries = st.one_of(
    st.integers(-6, 6),
    st.builds(
        lambda k, num, den: k + F(num, den),
        st.integers(-6, 6), st.integers(-3, 3), st.sampled_from([2, 3, 6]),
    ),
)
mixed_lists = st.lists(mixed_entries, min_size=1, max_size=12)


def _sorted_with_swap(args) -> Weight:
    """The entries in increasing order, then two positions swapped: often
    antidominant, and not when the swap reverses one class."""
    entries, i, j = args
    es = sorted(entries)
    i, j = i % len(es), j % len(es)
    es[i], es[j] = es[j], es[i]
    return Weight(es)


mixed_weights = st.one_of(
    mixed_lists.map(Weight),
    # One class throughout: integral.
    st.tuples(st.lists(st.integers(-6, 6), min_size=1, max_size=12),
              mixed_entries).map(lambda t: Weight(x + t[1] for x in t[0])),
    st.tuples(mixed_lists, st.integers(0, 11), st.integers(0, 11))
    .map(_sorted_with_swap),
)


def reference_is_integral(w: Weight) -> bool:
    """`Weight.is_integral` by Fraction subtraction, as it was written
    before the congruence key."""
    first = w.entries[0]
    return all((e - first).denominator == 1 for e in w.entries)


def reference_is_antidominant(w: Weight) -> bool:
    """`Weight.is_antidominant` over all pairs, by Fraction subtraction."""
    es = w.entries
    for i in range(len(es)):
        for j in range(i + 1, len(es)):
            if (es[i] - es[j]).denominator == 1 and es[i] > es[j]:
                return False
    return True


def reference_pq_dominance_violation(w: Weight, ctx: PQContext):
    """`pq_dominance_violation` by Fraction subtraction of adjacent pairs."""
    es = w.entries
    for lo, hi in ((0, ctx.p), (ctx.p, ctx.n)):
        for i in range(lo, hi - 1):
            d = es[i] - es[i + 1]
            if d.denominator != 1 or d <= 0:
                return (i + 1, i + 2)
    return None


_PARENT_TOKEN = re.compile(r"^[+-]?\d+(\.\d+)?$|^[+-]?\d+/\d+$", re.ASCII)


def reference_parse_rational(token: str) -> F:
    """`parse_rational` as it was before it converted the matched parts
    itself: the token is matched, then handed to ``Fraction(token)``."""
    token = token.strip()
    if not _PARENT_TOKEN.match(token):
        raise ParseError(f"not a rational token: {token!r}")
    try:
        return F(token)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator: {token!r}") from None
    except ValueError:
        shown = token if len(token) <= 40 else f"{token[:20]}...{token[-8:]}"
        raise ParseError(
            f"number too long ({len(token)} characters): {shown!r}"
        ) from None


# Python's limit on the digits int() converts from a string; 0 means none.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

# Digit strings with leading zeros, and (when there is a limit) strings just
# under, at and over it, so that each part of a token can cross it.
_digits = st.one_of(
    st.builds(
        lambda zeros, d: "0" * zeros + d,
        st.integers(0, 3), st.text("0123456789", min_size=1, max_size=5),
    ),
    st.builds(
        lambda zeros, k: "0" * zeros + "7" * k,
        st.integers(0, 1),
        st.sampled_from([DIGIT_LIMIT - 1, DIGIT_LIMIT, DIGIT_LIMIT + 1])
        if DIGIT_LIMIT else st.just(40),
    ),
)
_sign = st.sampled_from(["", "+", "-"])
_pad = st.sampled_from(["", " ", "\t", " \n"])
grammar_tokens = st.one_of(
    st.builds(lambda pad, sign, a: pad + sign + a + pad, _pad, _sign, _digits),
    st.builds(
        lambda pad, sign, a, sep, b: pad + sign + a + sep + b + pad,
        _pad, _sign, _digits, st.sampled_from([".", "/"]), _digits,
    ),
)
# Near misses of the grammar: every one is rejected or accepted as before.
near_tokens = st.text("0123456789+-./ eE_x\u0661\u00b2", max_size=10)


class TestParsing:
    def test_exact_decimals(self):
        assert parse_rational("3.5") == F(7, 2)
        assert parse_rational("1.1") == F(11, 10)
        assert parse_rational("-0.25") == F(-1, 4)

    def test_fractions_and_integers(self):
        assert parse_rational("19/10") == F(19, 10)
        assert parse_rational("-7") == F(-7)

    @pytest.mark.parametrize("bad", ["", "x", "1.1.1", "3/0", "1e3", "1/2/3"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad)

    def test_weight_round_trip(self):
        w = parse_weight(" 3, 3.5 ,2,1.5,-1,5.5,-1,0,1.1")
        assert w.entries[1] == F(7, 2)
        assert w.entries[-1] == F(11, 10)
        again = parse_weight(",".join(w.to_strings()))
        assert again.entries == w.entries

    def test_empty_weight(self):
        with pytest.raises(ParseError):
            parse_weight("")


class TestParseAgainstFraction:
    """`parse_rational` builds the Fraction from the parts of one match;
    it must agree with ``Fraction(token)`` and with the errors the parser
    raised when it handed the token to ``Fraction``."""

    @staticmethod
    def check(token):
        try:
            expected = reference_parse_rational(token)
        except ParseError as exc:
            with pytest.raises(ParseError) as info:
                parse_rational(token)
            assert str(info.value) == str(exc)
        else:
            got = parse_rational(token)
            assert type(got) is F
            assert got == expected == F(token)
            assert (got.numerator, got.denominator) == (
                expected.numerator, expected.denominator
            )
            # repr() of a value past the digit limit raises.
            if len(token) < 100:
                assert repr(got) == repr(expected)

    @settings(max_examples=300)
    @given(grammar_tokens)
    def test_grammar(self, token):
        self.check(token)

    @given(near_tokens)
    def test_near_misses(self, token):
        self.check(token)

    @pytest.mark.parametrize(
        "token",
        ["-0", "+0", "-0.50", "+3/6", "007", "-007.0100", "0/5", "-4/-2",
         "1/0", "-0/00", "1.", ".5", "1e3", "", " 3 "],
    )
    def test_examples(self, token):
        self.check(token)

    def test_signs_apply_last(self):
        assert repr(parse_rational("-0.50")) == "Fraction(-1, 2)"
        assert repr(parse_rational("+3/6")) == "Fraction(1, 2)"
        assert repr(parse_rational("-0")) == "Fraction(0, 1)"

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="int() has no digit limit")
    def test_decimal_parts_each_under_the_digit_limit(self):
        whole, frac = "7" * (DIGIT_LIMIT - 1), "3" * (DIGIT_LIMIT - 1)
        with pytest.raises(ValueError):
            int(whole + frac)
        token = f"-{whole}.{frac}"
        self.check(token)
        assert parse_rational(token).denominator == 10 ** len(frac)

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="int() has no digit limit")
    @pytest.mark.parametrize(
        "token",
        [f"1.{'3' * (DIGIT_LIMIT + 1)}", f"{'7' * (DIGIT_LIMIT + 1)}.5",
         f"{'7' * (DIGIT_LIMIT + 1)}/0", f"1/{'0' * (DIGIT_LIMIT + 1)}"],
        ids=["fraction-digits", "integer-part", "numerator", "denominator"],
    )
    def test_one_part_over_the_digit_limit(self, token):
        with pytest.raises(ParseError, match="number too long"):
            parse_rational(token)
        self.check(token)


class TestExactEntries:
    """A weight holds exact rationals: ints and `Fraction`s are taken, any
    other value is refused rather than converted."""

    @pytest.mark.parametrize(
        "entry",
        [1.5, 0.1, Decimal("1.5"), "3", None, 1j],
        ids=["float", "inexact-float", "Decimal", "str", "None", "complex"],
    )
    def test_refuses_inexact(self, entry):
        check_value_error(
            lambda: Weight([1, entry]),
            "weight entries must be integers or Fractions",
        )

    def test_takes_ints_and_fractions(self):
        w = Weight([3, F(7, 2), True])
        assert w.entries == (3, F(7, 2), 1)
        assert all(type(e) is F for e in w.entries)

    @pytest.mark.parametrize(
        "z", [0.1, 1.0, Decimal("1"), "1"],
        ids=["float", "integral-float", "Decimal", "str"],
    )
    @pytest.mark.parametrize("take", [
        add_z_zeta,
        unitary_gkdim,
        lambda w, ctx, z: unitary_interval(w, ctx).contains(z),
    ], ids=["add_z_zeta", "unitary_gkdim", "UnitaryInterval.contains"])
    def test_z_refuses_inexact(self, take, z):
        """z, like the entries, is an exact rational on the whole z-line."""
        check_value_error(
            lambda: take(Weight([2, 1, 4, 3, 2]), PQContext(2, 3), z),
            "z must be an integer or a Fraction",
        )


    @pytest.mark.parametrize(
        "c", [0.5, 1.0, Decimal("0.5"), Decimal("1"), "1", None],
        ids=["float", "integral-float", "Decimal", "integral-Decimal", "str",
             "None"],
    )
    def test_shift_refuses_inexact(self, c):
        """The shift is held to the entries' contract, under its own name."""
        check_value_error(
            lambda: Weight([2, F(1, 2)]).shift(c),
            "shift c must be an integer or a Fraction",
        )

    def test_shift_takes_ints_and_fractions(self):
        assert Weight([2, F(1, 2)]).shift(1).entries == (3, F(3, 2))
        assert Weight([2, F(1, 2)]).shift(F(-1, 2)).entries == (F(3, 2), 0)


class TestWeightValue:
    def test_contract(self):
        check_value_type(Weight, ([3, F(1, 2)],), {"entries": [3, F(1, 2)]},
                         "Weight(3, 1/2)")

    def test_needs_an_entry(self):
        check_value_error(lambda: Weight([]),
                          "a weight needs at least one entry")

    def test_sequence_of_its_entries(self):
        w = Weight([3, F(1, 2)])
        assert (list(w), len(w), w[0], w[-1]) == ([3, F(1, 2)], 2, 3, F(1, 2))

    def test_never_equal_to_a_tuple(self):
        assert Weight([1]) != (1,)
        assert not Weight([1]) == (1,)


class TestCanonicalize:
    def test_already_canonical(self):
        assert Weight([2, 1, 0]).canonicalize().entries == (2, 1, 0)

    def test_constant_shift(self):
        assert Weight([3, 2, 1]).canonicalize().entries == (2, 1, 0)

    def test_rational_shift(self):
        w = parse_weight("3,7/2,2,3/2,-1,11/2,-1,0,11/10")
        expected = tuple(e - F(11, 10) for e in w.entries)
        assert w.canonicalize().entries == expected
        assert w.canonicalize().entries == (
            F(19, 10), F(12, 5), F(9, 10), F(2, 5), F(-21, 10),
            F(22, 5), F(-21, 10), F(-11, 10), F(0),
        )

    @given(weights)
    def test_idempotent_and_equal(self, w):
        c = w.canonicalize()
        assert c.canonicalize() == c
        assert c.canonicalize().entries == c.entries
        assert c == w

    @given(weights, rationals)
    def test_equality_is_shift_equivalence(self, w, c):
        assert w.shift(c) == w
        assert hash(w.shift(c)) == hash(w)

    def test_different_lengths_unequal(self):
        assert Weight([1, 0]) != Weight([1, 0, 0])


class TestCongruenceKey:
    @given(mixed_entries, mixed_entries)
    def test_equal_iff_integer_difference(self, a, b):
        assert (congruence_key(a) == congruence_key(b)) == (
            (F(a) - F(b)).denominator == 1
        )

    @given(st.integers(-10**30, 10**30), st.integers(1, 10**6),
           st.integers(-10**6, 10**6))
    def test_invariant_under_integer_shift(self, num, den, k):
        e = F(num, den)
        assert congruence_key(e + k) == congruence_key(e)

    def test_int_and_fraction_agree(self):
        assert congruence_key(-3) == congruence_key(F(4)) == (0, 1)
        assert congruence_key(F(-1, 2)) == congruence_key(F(7, 2)) == (1, 2)


class TestAgainstSubtraction:
    """The key-based predicates against the Fraction-subtraction forms
    they replaced."""

    @given(mixed_weights)
    def test_is_integral(self, w):
        assert w.is_integral() == reference_is_integral(w)

    @given(mixed_weights)
    def test_is_antidominant(self, w):
        assert w.is_antidominant() == reference_is_antidominant(w)

    @given(st.randoms(use_true_random=False), st.integers(2, 12))
    def test_pq_dominance_violation(self, rng, n):
        w, ctx = random_dominant_weight(
            rng, n, integral=rng.random() < 0.8, max_gap=rng.randint(1, 3)
        )
        es = list(w.entries)
        for _ in range(rng.randint(0, 2)):
            i = rng.randrange(n)
            es[i] = rng.choice([
                es[i - 1], es[(i + 1) % n], es[i] + F(1, 2), es[i] + 1,
                es[i] - 1, int(es[i]) if es[i].denominator == 1 else es[i],
            ])
        w = Weight(es)
        assert pq_dominance_violation(w, ctx) == reference_pq_dominance_violation(w, ctx)


class TestIntegral:
    def test_paper_integral_example(self):
        assert parse_weight("5,4,3,2,1,9,8,7,6,2").is_integral()

    def test_paper_non_integral_example(self):
        assert not parse_weight("3,3.5,2,1.5,-1,5.5,-1,0,1.1").is_integral()

    @given(rationals)
    def test_constant_pair(self, c):
        assert Weight([c, c]).is_integral()

    @given(weights, rationals)
    def test_shift_invariant(self, w, c):
        assert w.is_integral() == w.shift(c).is_integral()


class TestAntidominant:
    def test_increasing_integral(self):
        assert Weight([1, 2, 3]).is_antidominant()

    def test_decreasing_integral(self):
        assert not Weight([2, 1]).is_antidominant()

    def test_only_integral_pairs_constrained(self):
        assert Weight([2, F(1, 2), 3]).is_antidominant()
        assert not Weight([3, F(1, 2), 2]).is_antidominant()

    @given(weights, rationals)
    def test_shift_invariant(self, w, c):
        assert w.is_antidominant() == w.shift(c).is_antidominant()


class TestPQDominance:
    def test_worked_example(self):
        w = parse_weight("6,5,3,2,9,8,7,4,2,1")
        assert is_pq_dominant(w, PQContext(4, 6))

    def test_small_true(self):
        assert is_pq_dominant(Weight([2, 1, 1, 0]), PQContext(2, 2))

    def test_first_half_violation(self):
        assert not is_pq_dominant(Weight([1, 1, 2, 1]), PQContext(2, 2))

    def test_non_integer_gap_violation(self):
        assert not is_pq_dominant(Weight([2, F(1, 2), 3, 1]), PQContext(2, 2))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            is_pq_dominant(Weight([1, 0]), PQContext(2, 2))

    @given(st.integers(-10, 10))
    def test_dominance_preserved_by_zeta_shift(self, z):
        w = Weight([6, 5, 3, 2, 9, 8, 7, 4, 2, 1])
        ctx = PQContext(4, 6)
        assert is_pq_dominant(add_z_zeta(w, ctx, z), ctx)


class TestPQContextValue:
    @pytest.mark.parametrize("args,kwargs,text", [
        ((4, 6), {"p": 4, "q": 6}, "PQContext(p=4, q=6)"),
        ((1, 1), {"p": 1, "q": 1}, "PQContext(p=1, q=1)"),
    ])
    def test_contract(self, args, kwargs, text):
        check_value_type(PQContext, args, kwargs, text)

    @pytest.mark.parametrize("args", [(0, 1), (1, 0), (-2, 3)])
    def test_validation(self, args):
        check_value_error(lambda: PQContext(*args), "p and q must be positive")

    @pytest.mark.parametrize("args", [(1.5, 2), (2, 2.0), ("2", 3),
                                      (F(3), 1), (None, 1)])
    def test_non_integral(self, args):
        check_value_error(lambda: PQContext(*args), "p and q must be integers")

    def test_index_like(self):
        class Four:
            def __index__(self):
                return 4

        ctx = PQContext(Four(), 6)
        assert ctx == (4, 6) and type(ctx.p) is int

    def test_is_a_tuple_of_its_fields(self):
        # As for every value type (README, "Layout"): a NamedTuple.
        ctx = PQContext(4, 6)
        assert (len(ctx), list(ctx), ctx) == (2, [4, 6], (4, 6))


def reference_add_z_zeta(w: Weight, ctx: PQContext, z) -> Weight:
    """The shift with one branch per entry, as `add_z_zeta` was written
    before it sliced the weight."""
    ctx.check(w)
    z = F(z)
    return Weight(e + z if i < ctx.p else e for i, e in enumerate(w.entries))


_shifts = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)


class TestAddZZeta:
    @staticmethod
    def check(w, ctx, z):
        expected = reference_add_z_zeta(w, ctx, z)
        got = add_z_zeta(w, ctx, z)
        assert got.entries == expected.entries
        assert all(type(e) is F for e in got.entries)

    @pytest.mark.parametrize("z", [0, 3, -4, F(7), F(1, 2), F(-5, 3), -F(1, 2)],
                             ids=repr)
    @pytest.mark.parametrize("p,q", [(1, 1), (1, 4), (4, 1), (2, 3)])
    def test_against_reference_examples(self, p, q, z):
        w = Weight([F(k, 2) - 3 for k in range(p + q)])
        self.check(w, PQContext(p, q), z)

    @given(mixed_lists.filter(lambda es: len(es) >= 2), st.integers(1, 11),
           _shifts)
    def test_against_reference(self, entries, p, z):
        p = min(p, len(entries) - 1)
        self.check(Weight(entries), PQContext(p, len(entries) - p), z)

    def test_integer_shift(self):
        w = add_z_zeta(Weight([2, 1, 4, 3, 2]), PQContext(2, 3), 3)
        assert w.entries == (5, 4, 4, 3, 2)

    def test_zero_is_identity(self):
        w = Weight([2, 1, 4, 3, 2])
        assert add_z_zeta(w, PQContext(2, 3), 0).entries == w.entries

    def test_rational_shift(self):
        w = add_z_zeta(Weight([2, 1, 4, 3, 2]), PQContext(2, 3), F(1, 2))
        assert w.entries == (F(5, 2), F(3, 2), 4, 3, 2)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            add_z_zeta(Weight([1, 0]), PQContext(2, 2), 1)
