"""Congruence classes, tableau collections and the GK dimension report."""

import json
import random
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkdim import (
    CongruenceClass,
    GKReport,
    Tableau,
    Weight,
    a_value,
    a_value_of_permutation,
    congruence_decomposition,
    gk_dimension,
    insertion_tableau,
    minimal_antidominant_permutation,
    parse_weight,
    tableau_collection,
)
from gkdim import tableaux

from helpers import check_value_type, reference_schensted

INTRO = "3,3.5,2,1.5,-1,5.5,-1,0,1.1"

weights = st.lists(
    st.fractions(min_value=-8, max_value=8, max_denominator=6),
    min_size=1,
    max_size=9,
).map(Weight)


# Ints and Fractions from a small pool, so entries repeat and classes mix.
mixed_weights = st.lists(
    st.one_of(
        st.integers(-5, 5),
        st.builds(lambda k, num, den: k + F(num, den), st.integers(-5, 5),
                  st.integers(-2, 2), st.sampled_from([2, 3, 4])),
    ),
    min_size=1,
    max_size=14,
).map(Weight)


# Up to 40 entries with few integer parts, so ties are heavy, shifted by
# halves, thirds and decimal offsets, so classes mix denominators.
long_mixed_weights = st.lists(
    st.builds(lambda k, c: k + c, st.integers(-6, 6),
              st.sampled_from([F(0), F(1, 2), F(-1, 3), F(2, 3), F(1, 10),
                               F(-3, 4)])),
    min_size=1,
    max_size=40,
).map(Weight)


def reference_a_value(report: GKReport) -> int:
    """The a-value through a `Shape` per tableau, as `gk_dimension` summed
    it before reading it off the row lengths."""
    return sum(t.shape().column_statistic() for t in report.tableaux)


def reference_congruence_decomposition(w: Weight) -> list[CongruenceClass]:
    """The decomposition by Fraction subtraction against each class's first
    entry, as it was written before the congruence key."""
    classes: list[tuple[list[int], list[F]]] = []
    for pos, e in enumerate(w.entries, start=1):
        for idx, ents in classes:
            if (e - ents[0]).denominator == 1:
                idx.append(pos)
                ents.append(e)
                break
        else:
            classes.append(([pos], [e]))
    return [CongruenceClass(tuple(i), tuple(e)) for i, e in classes]


# 1-3 classes (offsets 0, 1/2, -1/3) over five integer parts, so entries tie.
tied_weights = st.integers(1, 3).flatmap(
    lambda k: st.lists(
        st.builds(lambda i, c: i + c, st.integers(-2, 2),
                  st.sampled_from([F(0), F(1, 2), F(-1, 3)][:k])),
        min_size=1,
        max_size=25,
    )
).map(Weight)


class TestCongruenceDecomposition:
    @given(mixed_weights)
    def test_matches_subtraction_reference(self, w):
        assert congruence_decomposition(w) == reference_congruence_decomposition(w)
        report = gk_dimension(w)
        assert report.integral == w.is_integral()
        assert list(report.classes) == reference_congruence_decomposition(w)

    @given(tied_weights)
    def test_report_classes_are_the_decomposition(self, w):
        assert gk_dimension(w).classes == tuple(congruence_decomposition(w))

    @pytest.mark.parametrize("text,count", [
        ("2,2,1,2,1", 1),
        ("1/2,0,1/2,-1/2,0,0", 2),
        ("1,1/3,1,1/2,1/3,1/2,0,-2/3", 3),
    ])
    def test_report_classes_examples(self, text, count):
        w = parse_weight(text)
        classes = congruence_decomposition(w)
        assert len(classes) == count
        assert gk_dimension(w).classes == tuple(classes)

    def test_intro_example(self):
        classes = congruence_decomposition(parse_weight(INTRO))
        assert [c.entries for c in classes] == [
            (3, 2, -1, -1, 0),
            (F(7, 2), F(3, 2), F(11, 2)),
            (F(11, 10),),
        ]
        assert [c.indices for c in classes] == [
            (1, 3, 5, 7, 8), (2, 4, 6), (9,),
        ]

    def test_integral_single_class(self):
        (cls,) = congruence_decomposition(Weight([5, 1, -2]))
        assert cls.indices == (1, 2, 3)

    def test_all_singletons(self):
        classes = congruence_decomposition(Weight([0, F(1, 2), F(1, 3)]))
        assert [c.indices for c in classes] == [(1,), (2,), (3,)]

    @given(weights)
    def test_partition_properties(self, w):
        classes = congruence_decomposition(w)
        seen = sorted(i for c in classes for i in c.indices)
        assert seen == list(range(1, w.n + 1))
        firsts = [c.indices[0] for c in classes]
        assert firsts == sorted(firsts)
        for c in classes:
            assert list(c.indices) == sorted(c.indices)
            assert c.entries == tuple(w.entries[i - 1] for i in c.indices)
            base = c.entries[0]
            assert all((e - base).denominator == 1 for e in c.entries)
        for c1 in classes:
            for c2 in classes:
                if c1 is not c2:
                    assert (c1.entries[0] - c2.entries[0]).denominator != 1


_CLASS = CongruenceClass((1, 3), (F(3), F(2)))
_REPORT_FIELDS = {
    "n": 3, "nu0": 3, "a_value": 1, "gk_dimension": 2, "integral": False,
    "classes": (_CLASS,), "tableaux": (Tableau([[F(2)], [F(3)]]),),
}


@pytest.mark.parametrize("cls,args,kwargs,text", [
    (CongruenceClass, ((1, 3), (F(3), F(2))),
     {"indices": (1, 3), "entries": (F(3), F(2))},
     "CongruenceClass(indices=(1, 3), entries=(Fraction(3, 1), "
     "Fraction(2, 1)))"),
    (GKReport, tuple(_REPORT_FIELDS.values()), _REPORT_FIELDS,
     "GKReport(n=3, nu0=3, a_value=1, gk_dimension=2, integral=False, "
     "classes=(CongruenceClass(indices=(1, 3), entries=(Fraction(3, 1), "
     "Fraction(2, 1))),), tableaux=(Tableau([[Fraction(2, 1)], "
     "[Fraction(3, 1)]]),))"),
], ids=["CongruenceClass", "GKReport"])
def test_value_type_contract(cls, args, kwargs, text):
    check_value_type(cls, args, kwargs, text)


class TestTableauCollection:
    def test_intro_example(self):
        t1, t2, t3 = tableau_collection(parse_weight(INTRO))
        assert t1.rows == ((-1, -1, 0), (2,), (3,))
        assert t2.rows == ((F(3, 2), F(11, 2)), (F(7, 2),))
        assert t3.rows == ((F(11, 10),),)

    def test_two_column_example(self):
        (t,) = tableau_collection(parse_weight("5,4,3,2,1,9,8,7,6,2"))
        assert t.shape().column_sizes == (5, 5)
        assert len(t.column(2)) == 5

    def test_rank_one(self):
        (t,) = tableau_collection(Weight([F(7, 3)]))
        assert t.rows == ((F(7, 3),),)


class TestAValue:
    def test_intro_example(self):
        assert a_value(parse_weight(INTRO)) == 4

    def test_antidominant_is_zero(self):
        assert a_value(Weight(range(1, 8))) == 0

    def test_strictly_decreasing_is_maximal(self):
        assert a_value(Weight(range(7, 0, -1))) == 21

    @given(weights)
    def test_additive_over_classes(self, w):
        total = sum(
            a_value(Weight(c.entries)) for c in congruence_decomposition(w)
        )
        assert a_value(w) == total

    @given(weights, st.fractions(min_value=-5, max_value=5, max_denominator=4))
    def test_shift_invariant(self, w, c):
        assert a_value(w) == a_value(w.shift(c))
        assert gk_dimension(w).gk_dimension == gk_dimension(w.shift(c)).gk_dimension

    @given(weights)
    def test_bounds(self, w):
        nu0 = w.n * (w.n - 1) // 2
        assert 0 <= a_value(w) <= nu0


class TestGKReport:
    def test_intro_example(self):
        report = gk_dimension(parse_weight(INTRO))
        assert report.n == 9
        assert report.nu0 == 36
        assert report.a_value == 4
        assert report.gk_dimension == 32
        assert not report.integral

    def test_trivial_module(self):
        report = gk_dimension(Weight([3, 2, 1]))
        assert report.gk_dimension == 0 and report.integral

    def test_antidominant(self):
        report = gk_dimension(Weight([1, 2, 3]))
        assert report.gk_dimension == 3

    def test_rank_one(self):
        report = gk_dimension(Weight([F(5, 2)]))
        assert report.nu0 == 0 and report.gk_dimension == 0

    @settings(max_examples=200)
    @given(st.one_of(weights, mixed_weights, long_mixed_weights))
    def test_a_value_against_shapes(self, w):
        report = gk_dimension(w)
        assert report.a_value == reference_a_value(report)

    @pytest.mark.parametrize("text", [
        INTRO, "1.1,0.1,-0.9,2.1,1.1,0.1", "-3/2,-1/2,-3/2,5/2,-1/3,2/3,-1/3",
        ",".join(["2", "1/2", "-1/3"] * 13), ",".join(["0"] * 40),
        ",".join(str(k) for k in range(40, 0, -1)),
    ], ids=["intro", "decimals", "negative-mixed", "three-classes-39",
            "all-equal-40", "decreasing-40"])
    def test_a_value_against_shapes_examples(self, text):
        report = gk_dimension(parse_weight(text))
        assert report.a_value == reference_a_value(report)

    @given(weights)
    def test_identity_constraint(self, w):
        report = gk_dimension(w)
        assert report.gk_dimension + report.a_value == report.nu0

    def test_json_schema_and_round_trip(self):
        report = gk_dimension(parse_weight(INTRO))
        obj = json.loads(json.dumps(report.to_json()))
        assert set(obj) == {
            "n", "nu0", "a_value", "gk_dimension", "integral", "classes",
        }
        assert obj["gk_dimension"] == 32
        assert [c["indices"] for c in obj["classes"]] == [
            [1, 3, 5, 7, 8], [2, 4, 6], [9],
        ]
        parsed = [
            [F(s) for s in row]
            for row in obj["classes"][1]["tableau"]
        ]
        assert parsed == [[F(3, 2), F(11, 2)], [F(7, 2)]]


class TestShapeEquivalenceOracle:
    def test_integral_orbit_exhaustive(self):
        """On every rearrangement of a regular integral weight, the class
        a-value equals the a-value of the minimal antidominant permutation."""
        for n in range(1, 7):
            for ol in permutations(range(1, n + 1)):
                w = Weight(ol)
                sigma = minimal_antidominant_permutation(w)
                assert a_value(w) == a_value_of_permutation(sigma), ol

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=7))
    def test_integral_with_ties(self, entries):
        w = Weight(entries)
        sigma = minimal_antidominant_permutation(w)
        assert a_value(w) == a_value_of_permutation(sigma)


def reference_gk_dimension(w: Weight) -> GKReport:
    """The report with each class inserted as its `Fraction`s, as
    `gk_dimension` computed it before it inserted numerators."""
    classes = congruence_decomposition(w)
    tabs = tuple(insertion_tableau(c.entries) for c in classes)
    total = sum(t.a_value() for t in tabs)
    nu0 = w.n * (w.n - 1) // 2
    return GKReport(w.n, nu0, total, nu0 - total, len(classes) == 1,
                    tuple(classes), tabs)


# Up to 40 entries with few integer parts, so ties are heavy, offset by
# halves, thirds, sixths and decimals, so one weight mixes denominators.
keyed_weights = st.lists(
    st.builds(lambda k, c: k + c, st.integers(-6, 6),
              st.sampled_from([F(0), F(1, 2), F(-1, 2), F(1, 3), F(2, 3),
                               F(1, 6), F(-5, 6), F(1, 10), F(3, 10)])),
    min_size=1,
    max_size=40,
).map(Weight)


def _two_class_weight(n: int) -> Weight:
    rng = random.Random(n)
    return Weight(rng.randint(-125, 125) + rng.choice([F(0), F(1, 3)])
                  for _ in range(n))


WORST_CASES = {
    "decreasing-300": Weight(range(300, 0, -1)),
    "decreasing-300-halves": Weight(
        F(2 * i + 1, 2) for i in range(300, 0, -1)
    ),
    # 150 decreasing entries, then 150 larger increasing ones.
    "hook-150": Weight([*range(150, 0, -1), *range(151, 301)]),
    "two-class-1000": _two_class_weight(1000),
}


def check_against_reference(w: Weight) -> None:
    """`gk_dimension` equals the `Fraction`-inserting path and plain
    Schensted, and every tableau entry is one of the weight's own
    `Fraction`s."""
    report = gk_dimension(w)
    reference = reference_gk_dimension(w)
    assert report == reference
    assert report.to_json() == reference.to_json()
    for c, t in zip(report.classes, report.tableaux):
        assert t.rows == reference_schensted(c.entries)[0]
        own = {id(e) for e in c.entries}
        for e in (e for r in t.rows for e in r):
            assert type(e) is F and id(e) in own, e


class TestKeyedInsertion:
    """Each class is inserted as its numerators and relabelled by its own
    entries; the `Fraction`-inserting path is the reference."""

    @settings(max_examples=150, deadline=None)
    @given(keyed_weights)
    def test_matches_fraction_insertion(self, w):
        check_against_reference(w)

    @given(mixed_weights)
    def test_matches_fraction_insertion_mixed(self, w):
        check_against_reference(w)

    @pytest.mark.parametrize("text", [INTRO, "3,2,1", "1/2,5/2,-3/2,1/2",
                                      "0.1,1.1,-0.9,0.1,2/3,-1/3"])
    def test_examples(self, text):
        check_against_reference(parse_weight(text))

    @pytest.mark.parametrize("name", list(WORST_CASES))
    def test_worst_cases(self, name):
        check_against_reference(WORST_CASES[name])

    def test_worst_case_values(self):
        assert gk_dimension(WORST_CASES["decreasing-300"]).gk_dimension == 0
        hook = gk_dimension(WORST_CASES["hook-150"])
        assert [len(r) for r in hook.tableaux[0].rows] == [151] + [1] * 149

    @pytest.mark.parametrize("text", ["5,3,4,1,1,2", "9/2,1/2,3/2,1/2",
                                      INTRO])
    def test_compares_no_fraction(self, monkeypatch, text):
        """Every class has one denominator, so no `Fraction` is compared."""
        w = parse_weight(text)
        expected = reference_gk_dimension(w)

        def refuse(self, other):
            raise AssertionError("Fraction comparison")

        for name in ("__lt__", "__gt__", "__le__", "__ge__"):
            monkeypatch.setattr(F, name, refuse)
        report = gk_dimension(w)
        monkeypatch.undo()
        assert report == expected

    @pytest.mark.parametrize("text", ["5,3,4,1,1,2", INTRO])
    def test_validates_once_per_class(self, monkeypatch, text):
        calls = []
        validate = tableaux._validate

        def counting(rows):
            calls.append(rows)
            validate(rows)

        monkeypatch.setattr(tableaux, "_validate", counting)
        report = gk_dimension(parse_weight(text))
        assert len(calls) == len(report.classes)
