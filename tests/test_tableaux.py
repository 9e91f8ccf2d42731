"""Schensted insertion, shapes and the column statistic."""

from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gkdim import Shape, Tableau, insertion_tableau, rs_pair

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


def reference_schensted(seq):
    """(P rows, Q rows, added boxes) by plain Schensted row insertion.

    Each row is scanned left to right for the first entry strictly larger
    than the one being inserted, and both tableaux are rebuilt as tuples
    after every entry.
    """
    p, q, boxes = (), (), []
    for k, x in enumerate(seq, start=1):
        rows = [list(r) for r in p]
        i = 0
        while True:
            if i == len(rows):
                rows.append([x])
                box = (i + 1, 1)
                break
            row = rows[i]
            bigger = [j for j, e in enumerate(row) if e > x]
            if not bigger:
                row.append(x)
                box = (i + 1, len(row))
                break
            x, row[bigger[0]] = row[bigger[0]], x
            i += 1
        p = tuple(tuple(r) for r in rows)
        q_rows = [list(r) for r in q]
        if box[0] > len(q_rows):
            q_rows.append([k])
        else:
            q_rows[box[0] - 1].append(k)
        q = tuple(tuple(r) for r in q_rows)
        boxes.append(box)
    return p, q, boxes


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

    @given(st.integers(0, 30))
    def test_single_column(self, k):
        s = Shape((k,)) if k else Shape(())
        assert s.column_statistic() == k * (k - 1) // 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            Shape((1, 2))
        with pytest.raises(ValueError):
            Shape((2, 0))


class TestInsert:
    def test_worked_bump(self):
        t, box = Tableau([[2, 5], [3]]).insert(2)
        assert t.rows == ((2, 2), (3, 5))
        assert box == (2, 2)

    def test_into_empty(self):
        t, box = Tableau().insert(F(7, 2))
        assert t.rows == ((F(7, 2),),)
        assert box == (1, 1)

    def test_append_when_largest(self):
        t, box = Tableau([[1, 3], [2]]).insert(3)
        assert t.rows == ((1, 3, 3), (2,))
        assert box == (1, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            Tableau([[2, 1]])
        with pytest.raises(ValueError):
            Tableau([[1], [1]])
        with pytest.raises(ValueError):
            Tableau([[1], [2, 3]])


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
        t, boxes = Tableau(), []
        for x in seq:
            t, box = t.insert(x)
            boxes.append(box)
        assert t.rows == p_ref
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
