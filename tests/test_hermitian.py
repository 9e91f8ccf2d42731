"""su(p,q) computations: case split, deletion, ball models, unitarity."""

import importlib.util
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkdim import (
    AlgebraWord,
    BallSignature,
    DomainError,
    InvariantError,
    NotIntegralError,
    NotPQDominantError,
    OutsideUnitaryIntervalError,
    PQContext,
    Weight,
    Z_RANGE_BOUND,
    ZRangeBoundError,
    algebra_normal_form,
    associated_variety,
    ball_model_m,
    ball_model_m_by_simulation,
    ball_transform_equivalent,
    gk_dimension,
    gk_pq,
    gkdim_series,
    parse_weight,
    rs_pair,
    second_column_by_deletion,
    unitary_gkdim,
    unitary_interval,
    xi_signature,
)
import gkdim
import gkdim.hermitian
from gkdim.weights import add_z_zeta

from helpers import (
    all_patterns,
    random_dominant_weight,
    random_tilde_weight,
    reference_xi_signature,
    signature_from_balls,
    weight_from_pattern,
)

EX54 = parse_weight("6,5,3,2,9,8,7,4,2,1")
CTX54 = PQContext(4, 6)


def mu_tilde(p: int, q: int) -> Weight:
    """(p, p-1, ..., 1, p+q-1, ..., p): full consecutive runs on both sides."""
    return Weight(list(range(p, 0, -1)) + list(range(p + q - 1, p - 1, -1)))


def ball_line_of(w: Weight, ctx: PQContext) -> str:
    """Independent construction: sort entries decreasingly, whites first on
    ties, and read off colors."""
    tagged = [(e, 0, "b") for e in w.entries[: ctx.p]]
    tagged += [(e, 1, "w") for e in w.entries[ctx.p :]]
    tagged.sort(key=lambda t: (-t[0], -t[1]))
    return "".join(c for _, _, c in tagged)


class TestBallSignature:
    def test_validation(self):
        with pytest.raises(ValueError):
            BallSignature((1, 2, 3))  # odd length
        with pytest.raises(ValueError):
            BallSignature((1, 0, 1, 1))  # interior zero
        with pytest.raises(ValueError):
            BallSignature((-1, 2))
        assert BallSignature((0, 2, 2, 0)).white_total == 2

    def test_balls_round_trip(self):
        sig = BallSignature((3, 2, 1, 1, 1, 1, 1, 0))
        assert signature_from_balls("".join(sig.balls())) == sig


class TestXiSignature:
    def test_worked_example(self):
        assert xi_signature(EX54, CTX54).runs == (3, 2, 1, 1, 1, 1, 1, 0)

    def test_intro_example(self):
        w = parse_weight("5,4,3,2,1,9,8,7,6,2")
        sig = xi_signature(w, PQContext(5, 5))
        assert sig.runs == (4, 3, 1, 2)
        assert ball_model_m(sig) == 5

    def test_black_block_left(self):
        sig = xi_signature(Weight([4, 3, 1, 0]), PQContext(2, 2))
        assert sig.runs == (0, 2, 2, 0)

    def test_preconditions(self):
        with pytest.raises(NotPQDominantError):
            xi_signature(Weight([1, 2, 2, 1]), PQContext(2, 2))
        with pytest.raises(NotIntegralError):
            xi_signature(Weight([2, 1, F(1, 2)]), PQContext(2, 1))

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(2, 12))
    def test_matches_sorted_ball_line(self, rng, n):
        w, ctx = random_dominant_weight(rng, n)
        sig = xi_signature(w, ctx)
        assert "".join(sig.balls()) == ball_line_of(w, ctx)


# Weights that are not (p,q)-dominant break the inductive run count, which
# checks neither dominance nor integrality; they reach its internal checks.
UNCHECKED_RUNS = """
from gkdim import PQContext, Weight
from helpers import reference_xi_signature
for entries, p, q in (([2, 0, 1, 0], 3, 1), ([3, 4, 0, 2, 3], 3, 2)):
    try:
        reference_xi_signature(Weight(entries), PQContext(p, q))
    except RuntimeError as e:
        print(e)
"""


class TestXiSignatureChecks:
    """The run checks of the inductive count, the reference for the merge."""

    def test_empty_white_run(self):
        with pytest.raises(
            RuntimeError,
            match=r"Weight\(2, 0, 1, 0\) for \(p,q\)=\(3,1\): an empty white run "
            r"after the first, with runs \(0, 2\)",
        ):
            reference_xi_signature(Weight([2, 0, 1, 0]), PQContext(3, 1))

    def test_run_totals(self):
        with pytest.raises(
            RuntimeError,
            match=r"Weight\(3, 4, 0, 2, 3\) for \(p,q\)=\(3,2\): runs \(1, 1\) "
            r"hold 1 whites and 1 blacks",
        ):
            reference_xi_signature(Weight([3, 4, 0, 2, 3]), PQContext(3, 2))

    def test_checks_survive_optimize(self):
        path = [str(Path(gkdim.__file__).parents[1]), str(Path(__file__).parent)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        out = subprocess.run(
            [sys.executable, "-O", "-c", UNCHECKED_RUNS], env=env,
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        assert len(out) == 2
        assert "an empty white run" in out[0]
        assert "hold 1 whites and 1 blacks" in out[1]


def _perfbench_inputs():
    """perfbench/inputs.py, loaded by path: the benchmark is not a package
    on the test path."""
    path = Path(__file__).parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestXiSignatureAgainstInductiveCount:
    """The merge against the inductive run count it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(2, 14),
           st.integers(1, 3))
    def test_random_weights_with_ties(self, rng, n, max_gap):
        w, ctx = random_dominant_weight(rng, n, max_gap=max_gap)
        assert xi_signature(w, ctx) == reference_xi_signature(w, ctx)

    def test_every_pattern(self):
        for n in range(2, 8):
            for colors, ties in all_patterns(n):
                w, ctx = weight_from_pattern(colors, ties, base=F(1, 3))
                assert xi_signature(w, ctx) == reference_xi_signature(w, ctx)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_large_n_inputs(self, seed):
        kind, entries, (p, q) = _perfbench_inputs().large_round(seed, 0)[-1]
        assert kind == "pq" and p + q == 1000
        w, ctx = Weight(entries), PQContext(p, q)
        assert xi_signature(w, ctx) == reference_xi_signature(w, ctx)


class TestBallModel:
    def test_worked_example(self):
        assert ball_model_m(BallSignature((3, 2, 1, 1, 1, 1, 1, 0))) == 4

    def test_intro_example(self):
        assert ball_model_m(BallSignature((4, 3, 1, 2))) == 5

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 3), (4, 2)])
    def test_blocked_line_is_zero(self, p, q):
        assert ball_model_m(BallSignature((0, p, q, 0))) == 0

    def test_single_pair(self):
        assert ball_model_m_by_simulation(BallSignature((1, 1))) == 1

    def test_simulation_equals_recursion_exhaustively(self):
        """All ball lines with at most 14 balls."""
        for total in range(1, 15):
            for bits in range(1 << total):
                line = "".join(
                    "w" if bits >> i & 1 else "b" for i in range(total)
                )
                sig = signature_from_balls(line)
                assert ball_model_m(sig) == ball_model_m_by_simulation(sig), line


class TestSecondColumnByDeletion:
    def test_worked_example(self):
        column = second_column_by_deletion(EX54, CTX54)
        assert column == [2, 4, 7, 8]
        assert set(column) == {8, 7, 4, 2}

    def test_already_decreasing(self):
        assert second_column_by_deletion(Weight([4, 3, 2, 1]), PQContext(2, 2)) == []

    def test_single_cell(self):
        assert second_column_by_deletion(Weight([1, 2]), PQContext(1, 1)) == [2]
        p, _ = rs_pair([1, 2])
        assert p.rows == ((1, 2),)

    def test_tie_at_split_is_not_final(self):
        # smallest black equals top white: one pair is removable
        w = Weight([3, 2, 2, 1])
        assert second_column_by_deletion(w, PQContext(2, 2)) == [2]
        p, _ = rs_pair(w.entries)
        assert p.shape().column_sizes == (3, 1)

    def test_matches_tableau_column(self):
        rng = random.Random(9)
        for _ in range(300):
            w, ctx = random_dominant_weight(rng, rng.randint(2, 12))
            p, _ = rs_pair(w.entries)
            assert second_column_by_deletion(w, ctx) == list(p.column(2))


class TestAlgebraModel:
    def test_worked_example(self):
        word = AlgebraWord(
            [("x", 3), ("y", 2), ("x", 1), ("y", 1), ("x", 1), ("y", 1), ("x", 1)]
        )
        nf = algebra_normal_form(word)
        assert (nf.v_exp, nf.y_exp, nf.x_exp) == (4, 0, 2)

    def test_single_relation(self):
        nf = algebra_normal_form(AlgebraWord([("x", 1), ("y", 1)]))
        assert (nf.v_exp, nf.y_exp, nf.x_exp) == (1, 0, 0)

    @given(st.integers(0, 9), st.integers(0, 9))
    def test_already_normal(self, a, b):
        nf = algebra_normal_form(AlgebraWord([("y", a), ("x", b)]))
        assert (nf.v_exp, nf.y_exp, nf.x_exp) == (0, a, b)

    @given(
        st.lists(
            st.tuples(st.sampled_from("xy"), st.integers(0, 5)), max_size=10
        )
    )
    def test_exponent_bookkeeping(self, factors):
        word = AlgebraWord(factors)
        nf = algebra_normal_form(word)
        xs = sum(e for l, e in factors if l == "x")
        ys = sum(e for l, e in factors if l == "y")
        assert nf.v_exp + nf.x_exp == xs
        assert nf.v_exp + nf.y_exp == ys

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            AlgebraWord([("z", 1)])
        with pytest.raises(ValueError):
            AlgebraWord([("x", -1)])


class TestBallTransforms:
    def test_reflexive(self):
        sig = BallSignature((1, 1, 1, 1))
        assert ball_transform_equivalent(sig, sig)

    def test_count_mismatch(self):
        with pytest.raises(DomainError):
            ball_transform_equivalent(
                BallSignature((1, 1)), BallSignature((2, 1))
            )

    def test_paper_transformed_line(self):
        # the worked line rearranged into alternating form, same pair count
        original = xi_signature(EX54, CTX54)
        target = signature_from_balls("wbwbwbwbww")
        assert ball_model_m(target) == 4
        assert ball_transform_equivalent(original, target)

    def test_pair_count_invariant_on_reachable_set(self):
        """Both moves preserve the removable-pair count; different counts
        are never reachable."""
        rng = random.Random(3)
        for _ in range(40):
            total = rng.randint(2, 8)
            line1 = "".join(rng.choice("wb") for _ in range(total))
            line2_list = list(line1)
            rng.shuffle(line2_list)
            line2 = "".join(line2_list)
            sig1 = signature_from_balls(line1)
            sig2 = signature_from_balls(line2)
            if ball_transform_equivalent(sig1, sig2):
                assert ball_model_m(sig1) == ball_model_m(sig2)
            else:
                pass  # unreachable pairs carry no claim either way

    def test_unequal_m_never_reachable(self):
        sig1 = signature_from_balls("wb")  # one removable pair
        sig2 = signature_from_balls("bw")  # none
        assert not ball_transform_equivalent(sig1, sig2)


class TestGkPQ:
    def test_worked_example(self):
        report = gk_pq(EX54, CTX54)
        assert report.integral
        assert report.m == 4
        assert report.gk_dimension == 24
        assert report.second_column == (2, 4, 7, 8)
        assert set(report.second_column) == {8, 7, 4, 2}
        assert report.xi.runs == (3, 2, 1, 1, 1, 1, 1, 0)
        assert report.orbit_index == 4
        assert report.orbit_dimension == 24

    def test_intro_su55(self):
        report = gk_pq(parse_weight("5,4,3,2,1,9,8,7,6,2"), PQContext(5, 5))
        assert report.m == 5 and report.gk_dimension == 25

    def test_non_integral_smallest(self):
        report = gk_pq(Weight([1, F(1, 2)]), PQContext(1, 1))
        assert not report.integral
        assert report.gk_dimension == 1
        assert report.second_column is None and report.xi is None

    def test_error_names_offending_pair(self):
        with pytest.raises(NotPQDominantError) as exc:
            gk_pq(Weight([1, 2, 2, 1]), PQContext(2, 2))
        assert exc.value.details["i"] == 1 and exc.value.details["j"] == 2

    def test_checks_dominance_once(self, monkeypatch):
        calls = []
        check = gkdim.hermitian.pq_dominance_violation

        def counting(w, ctx):
            calls.append(w)
            return check(w, ctx)
        monkeypatch.setattr(gkdim.hermitian, "pq_dominance_violation", counting)
        for w, ctx in ((EX54, CTX54), (Weight([1, F(1, 2)]), PQContext(1, 1))):
            calls.clear()
            gk_pq(w, ctx)
            assert calls == [w]
        # Adding z to the first p entries keeps dominance, so neither the
        # points of a series nor the shifted weight of a unitary point is
        # checked again.
        w = parse_weight("6,5,4,3,11,10,9,8,7,6")
        for answer in (
            lambda: gkdim_series(w, CTX54, -8, 12),
            lambda: unitary_gkdim(w, CTX54, 1),
            lambda: unitary_gkdim(w, CTX54, F(1, 2)),
        ):
            calls.clear()
            answer()
            assert calls == [w]

    def test_json_round_trip(self):
        obj = json.loads(json.dumps(gk_pq(EX54, CTX54).to_json()))
        assert set(obj) == {
            "p", "q", "integral", "m", "second_column", "xi",
            "gk_dimension", "orbit_index", "orbit_dimension",
        }
        assert obj["second_column"] == ["2", "4", "7", "8"]
        assert obj["xi"] == [3, 2, 1, 1, 1, 1, 1, 0]

    @settings(max_examples=200, deadline=None)
    @given(
        st.randoms(use_true_random=False),
        st.integers(2, 12),
        st.booleans(),
    )
    def test_case_split_and_bounds(self, rng, n, integral):
        w, ctx = random_dominant_weight(rng, n, integral=integral)
        report = gk_pq(w, ctx)
        tableaux = gk_dimension(w).tableaux
        if report.integral:
            assert len(tableaux) == 1
            assert len(tableaux[0].shape().column_sizes) <= 2
            assert 0 <= report.m <= min(ctx.p, ctx.q)
            assert report.gk_dimension == report.m * (ctx.n - report.m)
        else:
            assert len(tableaux) == 2
            shapes = sorted(t.shape().column_sizes for t in tableaux)
            assert shapes == sorted([(ctx.p,), (ctx.q,)])
            assert report.gk_dimension == ctx.p * ctx.q
            assert report.m == min(ctx.p, ctx.q)
        assert report.gk_dimension == gk_dimension(w).gk_dimension


class TestQuadrupleAgreement:
    @settings(max_examples=250, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(2, 14))
    def test_random_weights(self, rng, n):
        w, ctx = random_dominant_weight(rng, n)
        # A common shift keeps the weight integral but makes entries fractional.
        shift = rng.choice([0, F(1, 2), F(-2, 3)])
        w = Weight(e + shift for e in w.entries)
        second = rs_pair(w.entries)[0].column(2)
        m_tab = len(second)
        m_del = len(second_column_by_deletion(w, ctx))
        sig = xi_signature(w, ctx)
        m_ball = ball_model_m(sig)
        m_alg = algebra_normal_form(AlgebraWord.from_signature(sig)).v_exp
        report = gk_pq(w, ctx)
        assert m_tab == m_del == m_ball == m_alg == report.m
        assert list(report.second_column) == list(second)
        assert report.xi == sig

    def test_same_signature_same_shape(self):
        """Weights realizing the same ball line have equal tableau shapes."""
        rng = random.Random(11)
        for _ in range(120):
            n = rng.randint(2, 10)
            p = rng.randint(1, n - 1)
            black = set(rng.sample(range(n), p))
            colors = tuple("b" if i in black else "w" for i in range(n))
            adjacency = [
                i for i in range(n - 1)
                if colors[i] == "w" and colors[i + 1] == "b"
            ]
            ties = frozenset(i for i in adjacency if rng.random() < 0.5)
            w1, ctx = weight_from_pattern(colors, ties, base=rng.randint(-3, 3))
            # a second realization of the same line, with random larger gaps
            values = [rng.randint(5, 9)]
            for i in range(1, n):
                step = 0 if (i - 1) in ties else rng.randint(1, 4)
                values.append(values[-1] - step)
            blacks = [v for v, c in zip(values, colors) if c == "b"]
            whites = [v for v, c in zip(values, colors) if c == "w"]
            w2 = Weight(blacks + whites)
            assert xi_signature(w2, ctx) == xi_signature(w1, ctx)
            assert (
                rs_pair(w1.entries)[0].shape()
                == rs_pair(w2.entries)[0].shape()
            )


class TestUnitaryInterval:
    @pytest.mark.parametrize("p,q", [(1, 1), (2, 3), (3, 2), (4, 4)])
    def test_mu_tilde_has_full_runs(self, p, q):
        interval = unitary_interval(mu_tilde(p, q), PQContext(p, q))
        assert interval.p_prime == p and interval.q_prime == q
        assert interval.threshold_real == max(p, q)
        assert interval.threshold_int == p + q - 1

    def test_rank_one(self):
        interval = unitary_interval(Weight([F(5, 2), F(5, 2)]), PQContext(1, 1))
        assert interval.p_prime == interval.q_prime == 1
        assert interval.threshold_real == 1 and interval.threshold_int == 1

    def test_broken_runs(self):
        interval = unitary_interval(Weight([3, 1, 4, 3]), PQContext(2, 2))
        assert interval.p_prime == 1
        assert interval.q_prime == 2  # trailing (4, 3) is a consecutive run

    def test_membership(self):
        interval = unitary_interval(mu_tilde(2, 3), PQContext(2, 3))
        assert interval.contains(F(5, 2))  # real branch: <= max(p', q') = 3
        assert interval.contains(4)  # integer branch: <= p'+q'-1 = 4
        assert not interval.contains(5)
        assert not interval.contains(F(7, 2))

    def test_preconditions(self):
        with pytest.raises(DomainError):
            unitary_interval(Weight([2, 1, 4, 3]), PQContext(2, 2))
        with pytest.raises(NotPQDominantError):
            unitary_interval(Weight([1, 2, 2, 1]), PQContext(2, 2))


class TestUnitaryGKdim:
    def test_integer_in_tail(self):
        assert unitary_gkdim(mu_tilde(2, 3), PQContext(2, 3), 3) == 4

    def test_small_z_gives_pq(self):
        assert unitary_gkdim(mu_tilde(2, 3), PQContext(2, 3), 0) == 6

    def test_non_integer_gives_pq(self):
        assert unitary_gkdim(mu_tilde(2, 3), PQContext(2, 3), F(1, 2)) == 6

    def test_outside_interval(self):
        with pytest.raises(OutsideUnitaryIntervalError):
            unitary_gkdim(mu_tilde(2, 3), PQContext(2, 3), 5)

    def test_value_depends_only_on_z(self):
        """Distinct base weights with equal (p, q, p', q') agree at each
        unitary z, integer or not."""
        ctx = PQContext(2, 2)
        w1 = Weight([3, 1, 4, 3])  # p' = 1, q' = 2
        w2 = Weight([0, -2, 1, 0])  # p' = 1, q' = 2, different gaps
        i1 = unitary_interval(w1, ctx)
        i2 = unitary_interval(w2, ctx)
        assert (i1.p_prime, i1.q_prime) == (i2.p_prime, i2.q_prime) == (1, 2)
        for z in range(-2, i1.threshold_int + 1):
            assert unitary_gkdim(w1, ctx, z) == unitary_gkdim(w2, ctx, z)
        assert unitary_gkdim(w1, ctx, F(1, 2)) == unitary_gkdim(
            w2, ctx, F(1, 2)
        )


class TestSeries:
    def test_mu_tilde_series(self):
        series = gkdim_series(mu_tilde(2, 3), PQContext(2, 3), 0, 5)
        assert series == [(0, 6), (1, 6), (2, 6), (3, 4), (4, 0), (5, 0)]

    def test_single_point(self):
        assert gkdim_series(mu_tilde(2, 3), PQContext(2, 3), 2, 2) == [(2, 6)]

    def test_empty_range_rejected(self):
        with pytest.raises(DomainError):
            gkdim_series(mu_tilde(2, 3), PQContext(2, 3), 3, 1)

    def test_range_above_bound_rejected_before_any_point(self, monkeypatch):
        def no_point(*args):
            raise AssertionError("a point computed for an oversized range")

        monkeypatch.setattr(gkdim.hermitian, "_dominant_gk_pq", no_point)
        with pytest.raises(ZRangeBoundError) as info:
            gkdim_series(mu_tilde(2, 3), PQContext(2, 3), 0, 10**9)
        assert info.value.code == "z-range-bound-exceeded"
        assert info.value.details == {
            "z_from": 0, "z_to": 10**9, "z_range_bound": Z_RANGE_BOUND,
        }

    def test_bound_counts_points(self, monkeypatch):
        monkeypatch.setattr(gkdim.hermitian, "Z_RANGE_BOUND", 6)
        ctx = PQContext(2, 3)
        assert len(gkdim_series(mu_tilde(2, 3), ctx, 0, 5)) == 6
        assert len(gkdim_series(mu_tilde(2, 3), ctx, -3, 2)) == 6
        with pytest.raises(ZRangeBoundError):
            gkdim_series(mu_tilde(2, 3), ctx, 0, 6)
        with pytest.raises(ZRangeBoundError):
            gkdim_series(mu_tilde(2, 3), ctx, -4, 2)

    def test_monotone_and_threshold(self):
        rng = random.Random(23)
        for _ in range(60):
            w, ctx = random_tilde_weight(rng, rng.randint(2, 12))
            gap = w.entries[ctx.p] - w.entries[ctx.p - 1]
            hi = int(gap) + 3
            series = gkdim_series(w, ctx, -3, max(hi, ctx.n + 3))
            values = [g for _, g in series]
            assert all(a >= b for a, b in zip(values, values[1:]))
            for z, g in series:
                # tight zero set: 0 exactly past the coordinate gap
                assert (g == 0) == (z > gap), (w.entries, ctx.p, z, g)


class TestAssociatedVariety:
    def test_worked_example(self):
        assert associated_variety(EX54, CTX54) == (4, 24)

    def test_non_integral(self):
        w = Weight([6, 5, 3, 2, F(19, 2), F(17, 2), F(15, 2), F(7, 2), F(3, 2), F(1, 2)])
        assert associated_variety(w, PQContext(4, 6)) == (4, 24)

    def test_finite_dimensional(self):
        assert associated_variety(Weight([4, 3, 2, 1]), PQContext(2, 2)) == (0, 0)

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(2, 10), st.booleans())
    def test_orbit_dimension_formula(self, rng, n, integral):
        w, ctx = random_dominant_weight(rng, n, integral=integral)
        k, dim = associated_variety(w, ctx)
        assert dim == k * (ctx.n - k)
        report = gk_pq(w, ctx)
        if report.integral:
            assert dim == report.gk_dimension
        else:
            assert k == min(ctx.p, ctx.q) and dim == ctx.p * ctx.q


class TestZetaLineCrossChecks:
    def test_unitary_closed_form_against_direct(self):
        for p, q in [(1, 1), (2, 2), (2, 3), (3, 2), (3, 4)]:
            ctx = PQContext(p, q)
            w = mu_tilde(p, q)
            interval = unitary_interval(w, ctx)
            for z in range(-2, interval.threshold_int + 1):
                direct = gk_pq(add_z_zeta(w, ctx, z), ctx).gk_dimension
                assert unitary_gkdim(w, ctx, z) == direct


def _fake_gk_pq(values):
    """A stand-in for the points' gk_pq body, `_dominant_gk_pq`, whose
    successive reports carry `values`."""
    values = iter(values)
    return lambda w, ctx: SimpleNamespace(gk_dimension=next(values))


class TestCrossCheckErrors:
    """Each internal cross-check, forced to fail, names its input and both
    disagreeing values."""

    def test_tableau_against_ball_model(self, monkeypatch):
        monkeypatch.setattr(gkdim.hermitian, "ball_model_m", lambda xi: 0)
        with pytest.raises(
            RuntimeError,
            match=r"gk_pq of Weight\(6, 5, 3, 2, 9, 8, 7, 4, 2, 1\) for "
            r"\(p,q\)=\(4,6\): tableau and ball model disagree: second column "
            r"of length 4, ball model m = 0 from BallSignature\(3, 2, 1, 1, 1, 1, 1, 0\)",
        ) as info:
            gk_pq(EX54, CTX54)
        assert isinstance(info.value, InvariantError)
        assert info.value.to_json()["code"] == "invariant-violated"
        assert info.value.details == {
            "function": "gk_pq",
            "weight": ["6", "5", "3", "2", "9", "8", "7", "4", "2", "1"],
            "p": 4, "q": 6, "tableau_m": 4, "ball_model_m": 0,
            "xi": [3, 2, 1, 1, 1, 1, 1, 0],
        }

    def test_unitary_closed_form_against_direct(self, monkeypatch):
        monkeypatch.setattr(
            gkdim.hermitian, "_dominant_gk_pq", _fake_gk_pq([5])
        )
        with pytest.raises(
            RuntimeError,
            match=r"unitary_gkdim of Weight\(2, 1, 4, 3, 2\) for \(p,q\)=\(2,3\) "
            r"at z=0: closed form 6 disagrees with direct computation 5",
        ) as info:
            unitary_gkdim(mu_tilde(2, 3), PQContext(2, 3), 0)
        assert isinstance(info.value, InvariantError)
        assert info.value.details["closed_form"] == 6
        assert info.value.details["direct"] == 5

    def test_series_not_decreasing(self, monkeypatch):
        monkeypatch.setattr(
            gkdim.hermitian, "_dominant_gk_pq", _fake_gk_pq([3, 5, 5])
        )
        with pytest.raises(
            RuntimeError,
            match=r"gkdim_series of Weight\(2, 1, 4, 3, 2\) for \(p,q\)=\(2,3\): "
            r"series is not weakly decreasing: GK dimension 3 at z=0 but 5 "
            r"at z=1; values \[3, 5, 5\]",
        ) as info:
            gkdim_series(mu_tilde(2, 3), PQContext(2, 3), 0, 2)
        assert isinstance(info.value, InvariantError)
        assert info.value.details["gk_dimension"] == 3
        assert info.value.details["next_gk_dimension"] == 5

    def test_series_nonzero_beyond_threshold(self, monkeypatch):
        monkeypatch.setattr(
            gkdim.hermitian, "_dominant_gk_pq", _fake_gk_pq([1] * 4)
        )
        with pytest.raises(
            RuntimeError,
            match=r"gkdim_series of Weight\(2, 1, 4, 3, 2\) for \(p,q\)=\(2,3\): "
            r"GK dimension 1 at z=5, expected 0 beyond threshold 4",
        ) as info:
            gkdim_series(mu_tilde(2, 3), PQContext(2, 3), 3, 6)
        assert isinstance(info.value, InvariantError)
        assert info.value.details["gk_dimension"] == 1
        assert info.value.details["expected"] == 0
