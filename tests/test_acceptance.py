"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time
from fractions import Fraction as F
from itertools import permutations

import pytest

from gkdim import (
    AlgebraWord,
    PQContext,
    Permutation,
    Tableau,
    Weight,
    a_function_definitional,
    a_value_of_permutation,
    algebra_normal_form,
    gk_dimension,
    gk_pq,
    gkdim_series,
    parse_weight,
    rs_pair,
    second_column_by_deletion,
    xi_signature,
)
from gkdim.hermitian import ball_model_m

from helpers import all_patterns, random_dominant_weight, random_tilde_weight


def best_runtime(fn, repeats=7):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def report(criterion: str):
    print(f"PASS {criterion}")


def test_criterion_01_intro_non_integral_example():
    w = parse_weight("3,3.5,2,1.5,-1,5.5,-1,0,1.1")
    result = gk_dimension(w)
    assert [t.shape().column_sizes for t in result.tableaux] == [
        (3, 1, 1), (2, 1), (1,),
    ]
    assert result.tableaux[0] == Tableau([[-1, -1, 0], [2], [3]])
    assert result.tableaux[1] == Tableau(
        [[F(3, 2), F(11, 2)], [F(7, 2)]]
    )
    assert result.tableaux[2] == Tableau([[F(11, 10)]])
    assert result.a_value == 4
    assert result.gk_dimension == 32
    runtime = best_runtime(lambda: gk_dimension(w))
    assert runtime < 1e-3, f"took {runtime * 1e3:.3f} ms"
    report(
        "criterion 1: intro example, three exact tableaux, A=4, GKdim=32, "
        f"{runtime * 1e6:.0f} us"
    )


def test_criterion_02_worked_su46_example():
    w = parse_weight("6,5,3,2,9,8,7,4,2,1")
    ctx = PQContext(4, 6)
    result = gk_pq(w, ctx)
    assert result.xi.runs == (3, 2, 1, 1, 1, 1, 1, 0)
    assert set(result.second_column) == {8, 7, 4, 2}
    assert result.m == 4
    assert result.gk_dimension == 24
    assert result.orbit_index == 4
    p, _ = rs_pair(w.entries)
    assert p == Tableau([[1, 2], [2, 4], [3, 7], [5, 8], [6], [9]])
    assert p.shape().column_sizes == (6, 4)
    assert p.column(2) == (2, 4, 7, 8)
    runtime = best_runtime(lambda: gk_pq(w, ctx))
    assert runtime < 1e-3, f"took {runtime * 1e3:.3f} ms"
    report(
        "criterion 2: su(4,6) example, xi/second column/m/orbit all exact, "
        f"{runtime * 1e6:.0f} us"
    )


def test_criterion_03_intro_su55_example():
    result = gk_pq(parse_weight("5,4,3,2,1,9,8,7,6,2"), PQContext(5, 5))
    assert result.m == 5
    assert result.gk_dimension == 25
    report("criterion 3: su(5,5) example, m=5, GKdim=25")


def test_criterion_04_insertion_chain():
    expected_p = [
        ((3,),),
        ((3, 5),),
        ((2, 5), (3,)),
        ((2, 2), (3, 5)),
        ((1, 2), (2, 5), (3,)),
    ]
    expected_q = [
        ((1,),),
        ((1, 2),),
        ((1, 2), (3,)),
        ((1, 2), (3, 4)),
        ((1, 2), (3, 4), (5,)),
    ]
    for k in range(1, 6):
        p, q = rs_pair([3, 5, 2, 2, 1][:k])
        assert p.rows == expected_p[k - 1], k
        assert q.rows == expected_q[k - 1], k
    report("criterion 4: all five intermediate (P_k, Q_k) pairs exact")


def test_criterion_05_rs_of_permutation():
    from gkdim import rs_of_permutation

    p, q = rs_of_permutation(Permutation((3, 4, 2, 1)))
    assert p == Tableau([[1, 4], [2], [3]])
    assert q == Tableau([[1, 2], [3], [4]])
    report("criterion 5: P and Q of (3,4,2,1) exact")


def test_criterion_06_algebra_normal_form():
    word = AlgebraWord(
        [("x", 3), ("y", 2), ("x", 1), ("y", 1), ("x", 1), ("y", 1), ("x", 1)]
    )
    nf = algebra_normal_form(word)
    assert nf.v_exp == 4
    assert nf.y_exp == 0
    assert nf.x_exp == 2
    report("criterion 6: x^3 y^2 xyxyx normalizes to v^4 x^2")


def test_criterion_07_oracle_fast_ranks():
    t0 = time.perf_counter()
    checked = 0
    for n in (1, 2, 3, 4):
        for ol in permutations(range(1, n + 1)):
            sigma = Permutation(ol)
            assert a_function_definitional(sigma) == a_value_of_permutation(
                sigma
            ), ol
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"took {elapsed:.1f}s"
    report(
        f"criterion 7 (fast tier): Hecke a == tableau a on {checked} "
        f"elements of S_1..S_4 in {elapsed:.2f}s"
    )


def test_criterion_07_oracle_rank_five():
    t0 = time.perf_counter()
    for ol in permutations(range(1, 6)):
        sigma = Permutation(ol)
        assert a_function_definitional(sigma) == a_value_of_permutation(
            sigma
        ), ol
    elapsed = time.perf_counter() - t0
    assert elapsed < 600, f"took {elapsed:.1f}s"
    report(
        f"criterion 7 (slow tier): Hecke a == tableau a on all 120 "
        f"elements of S_5 in {elapsed:.2f}s"
    )


def _four_ways(w, ctx):
    sig = xi_signature(w, ctx)
    return (
        len(rs_pair(w.entries)[0].column(2)),
        len(second_column_by_deletion(w, ctx)),
        ball_model_m(sig),
        algebra_normal_form(AlgebraWord.from_signature(sig)).v_exp,
    )


def test_criterion_08_quadruple_agreement():
    from helpers import weight_from_pattern

    t0 = time.perf_counter()
    checked = 0
    # exhaustive over interleaving-and-ties patterns for n <= 10; every
    # integral dominant weight with entries in a window of size n+2
    # realizes one of these patterns
    for n in range(2, 11):
        for colors, ties in all_patterns(n):
            w, ctx = weight_from_pattern(colors, ties)
            values = _four_ways(w, ctx)
            assert len(set(values)) == 1, (colors, ties, values)
            checked += 1
    # literal window enumeration for small ranks, as a cover check
    from itertools import combinations

    for n in range(2, 7):
        window = range(n + 2)
        for p in range(1, n):
            q = n - p
            for blacks in combinations(window, p):
                for whites in combinations(window, q):
                    w = Weight(
                        sorted(blacks, reverse=True)
                        + sorted(whites, reverse=True)
                    )
                    values = _four_ways(w, PQContext(p, q))
                    assert len(set(values)) == 1, (blacks, whites, values)
                    checked += 1
    # 500 random larger instances
    rng = random.Random(20260809)
    for _ in range(500):
        w, ctx = random_dominant_weight(rng, rng.randint(2, 16))
        values = _four_ways(w, ctx)
        assert len(set(values)) == 1, (w.entries, values)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"took {elapsed:.1f}s"
    report(
        f"criterion 8: tableau/deletion/ball/algebra m agree on {checked} "
        f"weights in {elapsed:.2f}s"
    )


def test_criterion_09_monotone_series():
    t0 = time.perf_counter()
    rng = random.Random(1234)
    found_tight = False
    for _ in range(200):
        w, ctx = random_tilde_weight(rng, rng.randint(2, 12))
        assert w.entries[0] == w.entries[-1]
        series = gkdim_series(w, ctx, -3, ctx.n + 3)
        values = [g for _, g in series]
        assert all(a >= b for a, b in zip(values, values[1:]))
        gap = w.entries[ctx.p] - w.entries[ctx.p - 1]
        for z, g in series:
            # pins the coordinate convention: in lambda+rho coordinates the
            # value vanishes exactly past the cross gap
            assert (g == 0) == (z > gap), (w.entries, z, g, gap)
        if any(z == gap for z, _ in series):
            found_tight = True
    assert found_tight
    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"took {elapsed:.1f}s"
    report(
        f"criterion 9: 200 series weakly decreasing with exact vanishing "
        f"threshold in {elapsed:.2f}s"
    )


def test_criterion_10_closed_form_on_full_runs():
    t0 = time.perf_counter()
    from gkdim.weights import add_z_zeta

    checked = 0
    for n in range(2, 13):
        for p in range(1, n):
            q = n - p
            ctx = PQContext(p, q)
            mu = Weight(
                list(range(p, 0, -1)) + list(range(n - 1, p - 1, -1))
            )
            for z in range(-2, n + 3):
                got = gk_pq(add_z_zeta(mu, ctx, z), ctx).gk_dimension
                if z < max(p, q):
                    expected = p * q
                elif z <= n - 1:
                    expected = (z + 1) * (n - 1 - z)
                else:
                    expected = 0
                assert got == expected, (p, q, z, got, expected)
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5, f"took {elapsed:.1f}s"
    report(
        f"criterion 10: closed form matches on {checked} (p,q,z) points "
        f"in {elapsed:.2f}s"
    )


def test_criterion_11_trivial_and_verma_bounds():
    for n in range(1, 21):
        decreasing = Weight(range(n, 0, -1))
        assert gk_dimension(decreasing).gk_dimension == 0
        increasing = Weight(range(1, n + 1))
        assert gk_dimension(increasing).gk_dimension == n * (n - 1) // 2
    report("criterion 11: GKdim 0 decreasing / n(n-1)/2 increasing, n <= 20")
