"""Schensted insertion, shapes and the column statistic."""

from fractions import Fraction as F
from itertools import permutations
from operator import ge, gt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkdim import Shape, Tableau, insertion_tableau, rs_pair, tableaux
from gkdim.tableaux import _relabel, _row_insert, _validate
from helpers import check_value_error, check_value_type, reference_schensted

entry_lists = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    min_size=0,
    max_size=12,
)

# Small ints mixed with halves, so that repeated entries are common.
repeat_heavy_lists = st.lists(
    st.one_of(
        st.integers(-3, 3),
        st.fractions(min_value=-3, max_value=3, max_denominator=2),
    ),
    max_size=20,
)


def reference_validate(rows):
    """The message `Tableau(rows)` raises, or None, found by comparing the
    entries themselves with plain loops."""
    for i, r in enumerate(rows):
        if not r:
            return "empty tableau row"
        if any(r[j] > r[j + 1] for j in range(len(r) - 1)):
            return f"row {i + 1} is not weakly increasing"
    for i in range(len(rows) - 1):
        if len(rows[i]) < len(rows[i + 1]):
            return "row lengths must weakly decrease"
        if any(rows[i][j] >= rows[i + 1][j] for j in range(len(rows[i + 1]))):
            return f"column not strictly increasing at row {i + 2}"
    return None


def previous_validate(rows):
    """The checks as the constructor made them while every row, ints too,
    went through the one-denominator prelude: the reference for the
    messages and their order."""
    if len({e.denominator for r in rows for e in r}) == 1:
        rows = [[e.numerator for e in r] for r in rows]
    for i, r in enumerate(rows):
        if not r:
            raise ValueError("empty tableau row")
        if any(map(gt, r, r[1:])):
            raise ValueError(f"row {i + 1} is not weakly increasing")
    for i in range(len(rows) - 1):
        if len(rows[i]) < len(rows[i + 1]):
            raise ValueError("row lengths must weakly decrease")
        if any(map(ge, rows[i], rows[i + 1])):
            raise ValueError(f"column not strictly increasing at row {i + 2}")


def validation_message(check, rows):
    """The text of the ValueError check(rows) raises, or None."""
    try:
        check(rows)
    except ValueError as error:
        return str(error)
    return None


# Rows of one shared denominator (ints, halves or thirds shifted by ints)
# or of mixed ones, as insertion builds them or with one entry overwritten.
_offsets = st.sampled_from([0, F(1, 2), F(-1, 3), F(5, 3)])
_small_entries = st.one_of(
    st.integers(-3, 3),
    st.builds(lambda k, c: k + c, st.integers(-3, 3), _offsets),
)
_one_class_seqs = st.builds(
    lambda ks, c: [k + c for k in ks],
    st.lists(st.integers(-3, 3), max_size=10), _offsets,
)


def _overwrite(args):
    rows, i, j, x = args
    rows = [list(r) for r in rows]
    if rows:
        row = rows[i % len(rows)]
        row[j % len(row)] = x
    return rows


def _two_runs_tableau(args):
    """The insertion tableau of two strictly decreasing runs of one class,
    as `gk_pq` inserts a (p,q)-dominant weight: tall, at most two columns."""
    blacks, whites, c = args
    runs = [sorted(set(ks), reverse=True) for ks in (blacks, whites)]
    rows = insertion_tableau([k + c for run in runs for k in run]).rows
    assert all(len(r) <= 2 for r in rows)
    return rows


_runs = st.lists(st.integers(-12, 12), min_size=1, max_size=12)
_two_column_rows = st.tuples(_runs, _runs, _offsets).map(_two_runs_tableau)
_tall_entries = st.one_of(
    _small_entries, st.builds(lambda k, c: k + c, st.integers(-13, 13), _offsets)
)

candidate_rows = st.one_of(
    st.lists(st.lists(_small_entries, max_size=4), max_size=4),
    st.one_of(_one_class_seqs, st.lists(_small_entries, max_size=10))
    .map(lambda seq: insertion_tableau(seq).rows),
    st.tuples(
        _one_class_seqs.map(lambda seq: insertion_tableau(seq).rows),
        st.integers(0, 9), st.integers(0, 9), _small_entries,
    ).map(_overwrite),
    _two_column_rows,
    st.tuples(
        _two_column_rows, st.integers(0, 23), st.integers(0, 1), _tall_entries,
    ).map(_overwrite),
)

# Int rows, as `gk_dimension` and the oracle insert them: arbitrary, or an
# insertion tableau with one entry overwritten.
int_candidate_rows = st.one_of(
    st.lists(st.lists(st.integers(-3, 3), max_size=4), max_size=4),
    st.tuples(
        st.lists(st.integers(-5, 5), max_size=10)
        .map(lambda seq: insertion_tableau(seq).rows),
        st.integers(0, 9), st.integers(0, 9), st.integers(-5, 5),
    ).map(_overwrite),
)

partitions = st.lists(st.integers(1, 12), max_size=12).map(
    lambda parts: sorted(parts, reverse=True)
)

# Words of one plain type each: strings, Fractions with mixed denominators,
# and ints drawn from five values, so that ties are heavy.
plain_words = st.one_of(
    st.lists(st.text(alphabet="abc", max_size=2), max_size=15),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6),
             max_size=15),
    st.lists(st.integers(-2, 2), max_size=25),
)


def _cut(args):
    """The word cut into consecutive rows of the given lengths, the last row
    taking what is left: rarely a tableau, and sometimes with an empty row."""
    word, lengths = args
    rows, start = [], 0
    for k in lengths:
        rows.append(word[start:start + k])
        start += k
    if start < len(word):
        rows.append(word[start:])
    return rows


def _is_partition(lengths):
    return all(r > 0 for r in lengths) and all(
        a >= b for a, b in zip(lengths, lengths[1:]))


class TestShape:
    def test_row_column_views(self):
        s = Shape.from_row_lengths([2, 2, 1])
        assert s.column_sizes == (3, 2)
        assert s.row_lengths == (2, 2, 1)
        assert Shape(s.column_sizes) == s

    def test_empty(self):
        s = Shape(())
        assert s.column_sizes == ()
        assert s.row_lengths == ()
        assert s.column_statistic() == 0

    def test_column_statistic_values(self):
        assert Shape((3, 1, 1)).column_statistic() == 3
        assert Shape((2, 1)).column_statistic() == 1

    @given(partitions)
    def test_column_statistic_from_row_lengths(self, rows):
        # n(lambda) = sum of (i-1)*lambda_i, the identity Tableau.a_value uses;
        # entry i+j at (i, j) makes a tableau of any shape.
        t = Tableau([[i + j for j in range(r)] for i, r in enumerate(rows)])
        assert t.a_value() == Shape.from_row_lengths(rows).column_statistic()

    @given(st.integers(0, 30))
    def test_single_column(self, k):
        s = Shape((k,)) if k else Shape(())
        assert s.column_statistic() == k * (k - 1) // 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            Shape((1, 2))
        with pytest.raises(ValueError):
            Shape((2, 0))

    # Any ints up to 40, so that a long first row stays cheap to build.
    @given(st.one_of(st.lists(st.integers(max_value=40)),
                     st.lists(st.integers(-1, 4), max_size=6)))
    def test_from_row_lengths_accepts_exactly_partitions(self, lengths):
        if _is_partition(lengths):
            assert Shape.from_row_lengths(lengths).row_lengths == tuple(lengths)
        else:
            with pytest.raises(ValueError):
                Shape.from_row_lengths(lengths)

    @given(partitions)
    def test_from_row_lengths_round_trip(self, lengths):
        s = Shape.from_row_lengths(lengths)
        assert Shape.from_row_lengths(s.row_lengths) == s
        assert Shape(s.column_sizes) == s


class TestInsert:
    def test_worked_bump(self):
        rows = [[2, 5], [3]]
        box = _row_insert(rows, 2)
        assert Tableau(rows).rows == ((2, 2), (3, 5))
        assert box == (2, 2)

    def test_into_empty(self):
        rows = []
        box = _row_insert(rows, F(7, 2))
        assert Tableau(rows).rows == ((F(7, 2),),)
        assert box == (1, 1)

    def test_append_when_largest(self):
        rows = [[1, 3], [2]]
        box = _row_insert(rows, 3)
        assert Tableau(rows).rows == ((1, 3, 3), (2,))
        assert box == (1, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            Tableau([[2, 1]])
        with pytest.raises(ValueError):
            Tableau([[1], [1]])
        with pytest.raises(ValueError):
            Tableau([[1], [2, 3]])


class TestValidation:
    """The constructor compares the entries as they are given.  Its checks,
    their order and their messages are those it made while rows of one
    denominator were compared by their numerators (`previous_validate`)."""

    def test_mixed_denominators_compare_values(self):
        # Equal numerators, but 1/2 > 1/3 and 1 > 1/2.
        with pytest.raises(ValueError, match="row 1 is not weakly"):
            Tableau([[F(1, 2), F(1, 3)]])
        with pytest.raises(ValueError, match="row 1 is not weakly"):
            Tableau([[1, F(1, 2)]])
        # Equal numerators, but 1/3 < 1/2 strictly.
        assert Tableau([[F(1, 3)], [F(1, 2)]]).rows == ((F(1, 3),), (F(1, 2),))

    @pytest.mark.parametrize(
        "rows", [[[F(1, 2)], [F(1, 2)]], [[F(3, 2), F(5, 2)], [F(3, 2)]],
                 [[F(-1, 3), F(2, 3)], [F(-4, 3), F(5, 3)]]],
    )
    def test_one_denominator_column_not_strict(self, rows):
        with pytest.raises(ValueError, match="column not strictly"):
            Tableau(rows)

    def test_int_rows_still_checked(self):
        _, q = rs_pair([3, 5, 2, 2, 1])
        assert Tableau(q.rows) == q
        with pytest.raises(ValueError, match="row 1 is not weakly"):
            Tableau([[2, 1], [3, 4], [5]])
        with pytest.raises(ValueError, match="column not strictly"):
            Tableau([[1, 2], [3, 4], [2]])

    @settings(max_examples=300)
    @given(candidate_rows)
    def test_against_value_comparison(self, rows):
        expected = reference_validate(rows)
        if expected is None:
            assert Tableau(rows).rows == tuple(tuple(r) for r in rows)
        else:
            with pytest.raises(ValueError) as info:
                Tableau(rows)
            assert str(info.value) == expected


    @pytest.mark.parametrize("rows", [
        [], [[1, 1, 4], [2, 5], [3]], [[F(1, 2), F(3, 2)], [F(5, 2)]],
        [[F(-1), F(-1), 0], [2], [3]], [[1, F(3, 2)], [F(5, 2)]],
        [[1], []], [[2, 1]], [[1, 2], [1, 3]], [[1], [2, 3]],
        [[F(3, 2), F(1, 2)]], [[F(1, 2)], [F(1, 2)]], [[F(1, 2)], []],
        [[1, F(1, 2)]], [[F(1, 3)], [F(1, 2), 1]], [[F(2), 1]],
    ])
    def test_examples_against_previous_checks(self, rows):
        assert validation_message(Tableau, rows) == validation_message(
            previous_validate, rows)

    @settings(max_examples=300)
    @given(st.one_of(candidate_rows, int_candidate_rows))
    def test_against_previous_checks(self, rows):
        """Comparing values gives the messages that comparing numerators
        gave, in the constructor and in `_validate` on int rows, which every
        `gk_dimension` class is validated as."""
        expected = validation_message(previous_validate, rows)
        assert validation_message(Tableau, rows) == expected
        if all(type(e) is int for r in rows for e in r):
            assert validation_message(_validate, rows) == expected


class TestPlainValues:
    """Insertion and validation compare any totally ordered entries as they
    are given; plain Schensted (`reference_schensted`) is the reference."""

    @settings(max_examples=300)
    @given(plain_words)
    def test_insertion(self, word):
        p_ref, q_ref, _ = reference_schensted(word)
        assert insertion_tableau(word).rows == p_ref
        p, q = rs_pair(word)
        assert (p.rows, q.rows) == (p_ref, q_ref)

    @settings(max_examples=300)
    @given(st.tuples(plain_words, st.lists(st.integers(0, 5), max_size=5))
           .map(_cut))
    def test_validation(self, rows):
        assert validation_message(Tableau, rows) == reference_validate(rows)


class TestRelabel:
    @given(plain_words, st.integers(-9, 9))
    def test_increasing_map(self, word, shift):
        t = insertion_tableau(word)
        rank = {e: shift + 2 * i for i, e in enumerate(sorted(set(word)))}
        u = _relabel(t, rank.__getitem__)
        assert u.shape() == t.shape()
        assert u.rows == tuple(tuple(rank[e] for e in r) for r in t.rows)
        # Insertion commutes with a strictly increasing map.
        assert u == insertion_tableau(map(rank.__getitem__, word))
        assert type(u) is Tableau

    def test_does_not_validate(self, monkeypatch):
        t = insertion_tableau([3, 1, 2, 1])

        def refuse(rows):
            raise AssertionError("validated again")

        monkeypatch.setattr(tableaux, "_validate", refuse)
        u = _relabel(t, "abcd".__getitem__)
        assert u.rows == (("b", "b"), ("c",), ("d",))


class TestRSPair:
    def test_worked_example(self):
        p, q = rs_pair([3, 5, 2, 2, 1])
        assert p.rows == ((1, 2), (2, 5), (3,))
        assert q.rows == ((1, 2), (3, 4), (5,))
        assert p.shape().column_sizes == (3, 2)

    def test_increasing_single_row(self):
        p, _ = rs_pair([1, 2, 3])
        assert p.rows == ((1, 2, 3),)

    def test_decreasing_single_column(self):
        p, _ = rs_pair([3, 2, 1])
        assert p.rows == ((1,), (2,), (3,))

    def test_empty_sequence(self):
        p, q = rs_pair([])
        assert p.rows == () and q.rows == ()

    @given(entry_lists)
    def test_shapes_agree_and_q_standard(self, seq):
        p, q = rs_pair(seq)
        assert p.shape() == q.shape()
        assert p.size == len(seq)
        assert q.is_standard() or not seq

    @given(entry_lists)
    def test_sorted_inputs(self, seq):
        p_up, _ = rs_pair(sorted(seq))
        assert len(p_up.rows) <= 1
        p_down, _ = rs_pair(sorted(set(seq), reverse=True))
        assert all(len(r) == 1 for r in p_down.rows)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_bijection_on_permutations(self, n):
        seen = {}
        for ol in permutations(range(1, n + 1)):
            pair = rs_pair(ol)
            assert pair not in seen, (ol, seen[pair])
            seen[pair] = ol
            assert pair[0].is_standard() and pair[1].is_standard()


class TestAgainstReference:
    @given(repeat_heavy_lists)
    def test_rs_pair(self, seq):
        p_ref, q_ref, _ = reference_schensted(seq)
        p, q = rs_pair(seq)
        assert p.rows == p_ref
        assert q.rows == q_ref
        assert insertion_tableau(seq).rows == p_ref

    @given(repeat_heavy_lists)
    def test_folded_insert(self, seq):
        p_ref, _, boxes_ref = reference_schensted(seq)
        rows = []
        boxes = [_row_insert(rows, x) for x in seq]
        assert Tableau(rows).rows == p_ref
        assert boxes == boxes_ref


class TestRendering:
    def test_pretty(self):
        t = Tableau([[F(-1), F(-1), 0], [2], [3]])
        lines = t.pretty().splitlines()
        assert lines[0].split() == ["-1", "-1", "0"]
        assert len(lines) == 3

    def test_json_rows(self):
        t = Tableau([[F(3, 2), F(11, 2)], [F(7, 2)]])
        assert t.to_json_rows() == [["3/2", "11/2"], ["7/2"]]


class TestValueType:
    @pytest.mark.parametrize("cls,args,kwargs,text", [
        (Shape, ((3, 2),), {"column_sizes": (3, 2)}, "Shape(3, 2)"),
        (Shape, ([1],), {"column_sizes": [1]}, "Shape(1,)"),
        (Shape, ((),), {"column_sizes": ()}, "Shape()"),
        (Tableau, ([[1, 2], [3]],), {"rows": [[1, 2], [3]]},
         "Tableau([[1, 2], [3]])"),
        (Tableau, ([[F(1, 2)]],), {"rows": ((F(1, 2),),)},
         "Tableau([[Fraction(1, 2)]])"),
        (Tableau, ((),), {"rows": ()}, "Tableau([])"),
    ], ids=["Shape", "Shape-list", "Shape-empty", "Tableau",
            "Tableau-fraction", "Tableau-empty"])
    def test_contract(self, cls, args, kwargs, text):
        check_value_type(cls, args, kwargs, text)

    def test_empty_tableau(self):
        t = Tableau()
        assert t == Tableau([]) and t.rows == () and t.size == 0
        assert t.shape() == Shape(())

    @pytest.mark.parametrize("make,message", [
        (lambda: Shape((2, 0)), "column sizes must be positive"),
        (lambda: Shape((1, 2)), "column sizes must weakly decrease"),
        (lambda: Shape.from_row_lengths([0, 2]), "row lengths must be positive"),
        (lambda: Shape.from_row_lengths([1, 2]),
         "row lengths must weakly decrease"),
        (lambda: Tableau([[1], []]), "empty tableau row"),
        (lambda: Tableau([[1], [3, 2]]), "row 2 is not weakly increasing"),
        (lambda: Tableau([[1], [2, 3]]), "row lengths must weakly decrease"),
        (lambda: Tableau([[1, 2], [1]]),
         "column not strictly increasing at row 2"),
    ], ids=["shape-zero", "shape-increasing", "shape-row-zero",
            "shape-row-increasing", "empty-row", "row-order",
            "row-lengths", "column-order"])
    def test_validation_messages(self, make, message):
        check_value_error(make, message)

    @pytest.mark.parametrize("j", [0, -1])
    def test_column_index(self, j):
        check_value_error(lambda: Tableau([[1, 2], [3]]).column(j),
                          f"column index must be at least 1, got {j}")

    @pytest.mark.parametrize("rows,standard", [
        ([[1, 2], [3]], True),
        ([], True),
        ([[1, 3], [4]], False),
        ([[2]], False),
        ([[1, 1]], False),
        ([[F(1), F(2)]], True),
    ], ids=["standard", "empty", "gap", "not-from-1", "repeat", "fractions"])
    def test_is_standard(self, rows, standard):
        assert Tableau(rows).is_standard() is standard

    def test_column_past_the_shape(self):
        t = Tableau([[1, 2], [3]])
        assert (t.column(1), t.column(2), t.column(3)) == ((1, 3), (2,), ())
