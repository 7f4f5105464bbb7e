"""Inequality audits: hand-enumerated oracles, closed forms, and the battery.

Derived oracle values in this file were computed by hand from the summand
definitions (tiny supports, every term written out) and are frozen here;
the module under test must reproduce them exactly, not just satisfy the
inequalities.
"""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from diracproj.bounds import (
    BoundCheck,
    HARD_CHECKS,
    check_chain_sums,
    check_circle_double_sum,
    check_elementary,
    check_shift_sums,
    check_tail_sums,
    run_battery,
    violations,
    worst_ratios,
)
from diracproj.operator import disc_centers
from diracproj.potential import (
    BC_TAGS,
    DIRICHLET,
    PER_PLUS,
    PotentialSpec,
    RSequence,
    r_sequence,
    random_potential,
)
from diracproj.resolvent import circle_samples
from test_resolvent import dominated_hs_norm

# W(-2) = p(2)/2 = 1/2 is the only coupling coefficient: a one-point
# envelope whose chains can be enumerated by hand
ONE_POINT = PotentialSpec(p_even={2: 1.0}, q_even={}, p_odd={}, q_odd={}, max_mode=2)


def _chain_sums_by_enumeration(spec, bc, s, N, K, samples=16):
    """Chain sums from their summand definitions, every index in a box.

    The box |x| <= K + 2 max_mode holds every index with a nonzero envelope
    factor: an interior j needs |j + n| <= max_mode, a free end k needs
    |k + j| <= max_mode.  Each chain is maximized over the circle samples
    per free index, then summed.  The right-free chain is the left-free one
    with the free end renamed, so it gets the same value.

      s = 0  closed  r(2n)^2 / |l-n|^2
             free    (r(k+n) / (|l-k| |l-n|))^2,                 k != n
      s = 1  closed  (sum_j r(n+j)^2 / (|l-n|^2 |l-j|))^2
             free    (sum_j r(k+j) r(j+n) / (|l-k| |l-j| |l-n|))^2, k != n
             anchor  r(k+n)^2 r(n+m)^2 / (|l-k| |l-n| |l-m|)^2,  k, m != n
    """
    r = np.vectorize(r_sequence(spec, bc), otypes=[float])
    box = np.arange(-K - 2 * spec.max_mode, K + 2 * spec.max_mode + 1)
    sums = {"chain_closed": 0.0, "chain_left_free": 0.0}
    if s == 1:
        sums["chain_interior_anchor"] = 0.0
    for n in disc_centers(bc, K):
        if abs(n) <= N:
            continue
        lam = circle_samples(n, 0.5, samples)[:, None]
        gap_n = np.abs(lam - n)
        ends = box[box != n]
        # (sample, k): r(k+n) / (|l-k| |l-n|) over the free ends k != n
        end_terms = r(ends + n) / (np.abs(lam - ends) * gap_n)
        if s == 0:
            sums["chain_closed"] += float(np.max(r(2 * n) ** 2 / gap_n**2))
            sums["chain_left_free"] += float((end_terms**2).max(axis=0).sum())
            continue
        inner = (r(n + box) ** 2 / (gap_n**2 * np.abs(lam - box))).sum(axis=1)
        sums["chain_closed"] += float(np.max(inner**2))
        # (sample, k, j): r(k+j) r(j+n) / (|l-k| |l-j| |l-n|)
        links = r(ends[:, None] + box) * r(box + n) / np.abs(lam - box)[:, None, :]
        chain = links.sum(axis=2) / (np.abs(lam - ends) * gap_n)
        sums["chain_left_free"] += float((chain**2).max(axis=0).sum())
        pairs = end_terms[:, :, None] ** 2 * (end_terms * gap_n)[:, None, :] ** 2
        sums["chain_interior_anchor"] += float(pairs.max(axis=0).sum())
    sums["chain_right_free"] = sums["chain_left_free"]
    return sums


def _grid_shift_sum_by_loop(r, n, window):
    """grid_shift_sum's lhs, one support point at a time over the window."""
    d = r.step
    t = np.arange(-window, window + 1)
    t = t[t != 0]
    i = n + d * t
    inv_i = 1.0 / np.abs(n - i).astype(float)
    js = np.array(r.support, dtype=int)
    ws = np.array([r(int(j)) ** 2 for j in js], dtype=float)
    lhs_grid = 0.0
    for j, w in zip(js, ws):
        k = j - i
        mask = (k != n) & (np.abs(k - n) <= d * window)
        if np.any(mask):
            lhs_grid += w * float((inv_i[mask] / np.abs(n - k[mask])).sum())
    return lhs_grid


def _tail_sums_by_loop(r, N, K):
    """The four tail sums' lhs, the windowed grids one support point at a
    time over (n, window offset)."""
    d = r.step
    ns = np.array([n for n in range(-K, K + 1) if abs(n) > N])
    js = np.array(r.support, dtype=int)
    ws = np.array([r(int(j)) ** 2 for j in js], dtype=float)
    gaps = np.abs(2 * ns[:, None] - js[None, :]).astype(float)
    live = gaps > 0
    inv = np.where(live, 1.0 / np.where(live, gaps, 1.0), 0.0)
    lhs_sq = float((inv**2 @ ws).sum())
    row_sums = inv @ ws
    lhs_pair = float((row_sums**2).sum())
    T = 2 * K
    t = np.arange(-T, T + 1)
    t = t[t != 0]
    i = ns[:, None] + d * t[None, :]
    inv_i = 1.0 / (d * np.abs(t)).astype(float)[None, :]
    lhs_grid_sq = 0.0
    mixed_inner = np.zeros(ns.size)
    for j, w in zip(js, ws):
        k = j - i
        dist = np.abs(k - ns[:, None])
        mask = (dist > 0) & (dist <= d * T)
        inv_k = np.where(mask, 1.0 / np.where(mask, dist.astype(float), 1.0), 0.0)
        lhs_grid_sq += w * float(((inv_i * inv_k) ** 2).sum())
        mixed_inner += w * (inv_i * inv_k**2).sum(axis=1)
    lhs_mixed = float((row_sums * mixed_inner).sum())
    return {
        "tail_sum_sq": lhs_sq,
        "tail_sum_pair": lhs_pair,
        "tail_sum_grid_sq": lhs_grid_sq,
        "tail_sum_mixed": lhs_mixed,
    }


def _assert_rel(got, want, tol, label):
    if want == 0.0:
        assert got == 0.0, label
    else:
        assert abs(got - want) <= tol * abs(want), label


class TestElementary:
    def test_names_and_hard_pass(self):
        checks = check_elementary(n_max=500)
        assert [c.name for c in checks] == ["inverse_square_tail", "resonance_grid_sum"]
        for c in checks:
            assert c.ratio <= 1.0

    def test_tail_against_trigamma(self):
        # sum_{n > N} 1/n^2 = psi_1(N+1); the check's lhs must bracket it
        # from above while staying under 1/N
        checks = check_elementary(n_max=200)
        tail = checks[0]
        N = tail.parameters["worst_N"]
        true = float(scipy.special.polygamma(1, N + 1))
        assert true <= tail.lhs <= 1.0 / N
        # the margin closes like 1/(2N), so the worst case is the largest N
        assert N == 200
        assert tail.ratio == pytest.approx(1 - 1 / (2 * N), abs=2e-3)

    def test_resonance_closed_form(self):
        # sum_{p != +-n} (n^2 - p^2)^{-2} = pi^2/(6 n^2) - 3/(8 n^4):
        # partial fractions 1/(n^2-p^2) = (1/(2n))(1/(n-p) + 1/(n+p)),
        # then sum_{k >= 1, k != n} 1/(n^2 - k^2) = -3/(4 n^2)
        for n in (1, 2, 3, 10):
            p = np.arange(0, 2_000_000)
            gaps = (n * n - p * p).astype(float)
            gaps[n] = np.inf
            direct = float(1.0 / gaps[0] ** 2 + 2.0 * (1.0 / gaps[1:] ** 2).sum())
            closed = math.pi**2 / (6 * n * n) - 3.0 / (8 * n**4)
            assert direct == pytest.approx(closed, rel=1e-12)

    def test_resonance_worst_ratio(self):
        checks = check_elementary(n_max=500)
        res = checks[1]
        # the closed-form part of the ratio rises to pi^2/24; the truncation
        # allowance is relatively largest where the window floor P = 100
        # ends, so the worst case sits at that boundary, far below 1
        assert res.parameters["worst_n"] == 49
        assert res.ratio == pytest.approx(math.pi**2 / 24, abs=1e-3)
        assert res.ratio < 1.0

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            check_elementary(0)


class TestShiftSums:
    def test_row_hand_enumerated(self):
        # r(2) = 1, r(-2) = 2, n = 4: terms r(2)^2/|8-2| + r(-2)^2/|8+2|
        r = RSequence({2: 1.0, -2: 2.0}, step=2)
        row, _ = check_shift_sums(r, 4)
        assert row.lhs == pytest.approx(1.0 / 6.0 + 4.0 / 10.0, rel=1e-15)
        assert row.rhs_without_constant == pytest.approx(5.0 / 4.0)
        assert row.ratio <= 1.0

    def test_grid_hand_enumerated(self):
        # window 2, step 2, n = 4: only four i offsets; masking kills the
        # j = -2 anti-diagonal entirely, j = 2 keeps i in {0, 2}
        r = RSequence({2: 1.0, -2: 2.0}, step=2)
        _, grid = check_shift_sums(r, 4, window=2)
        assert grid.lhs == pytest.approx(0.25, rel=1e-15)
        assert grid.rhs_without_constant == pytest.approx(5.0 / 2.0)

    def test_support_on_resonant_point_excluded(self):
        # j = 2n contributes k = n, which the sum excludes
        r = RSequence({4: 3.0}, step=2)
        row, _ = check_shift_sums(r, 2)
        assert row.lhs == 0.0

    def test_rejects_bad_arguments(self):
        r = RSequence({2: 1.0}, step=2)
        with pytest.raises(ValueError):
            check_shift_sums(r, 0)
        with pytest.raises(ValueError):
            check_shift_sums(r, 4, window=0)

    def test_grid_window_monotone(self):
        r = RSequence({m: 1.0 for m in range(-8, 9, 2)}, step=2)
        values = [check_shift_sums(r, 6, window=w)[1].lhs for w in (8, 16, 32, 64)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @settings(max_examples=60, deadline=None)
    @given(
        support=st.dictionaries(
            st.integers(-10, 10), st.floats(0, 4, allow_nan=False), max_size=6
        ),
        n=st.integers(-12, 12).filter(lambda v: v != 0),
    )
    def test_row_bound_holds_with_constant_one(self, support, n):
        # the one genuinely constant-free inequality: every term with
        # |j| < |n| pays 1/|2n-j| < 1/|n|, every other lands in the tail
        r = RSequence(support, step=1)
        row, _ = check_shift_sums(r, n, window=4)
        assert row.ratio <= 1.0 + 1e-12


class TestTailSums:
    def test_hand_enumerated_point_mass(self):
        # r = delta at 0, N = 1, K = 2: outer n in {-2, 2}, every inner
        # index enumerable within the 2K-step windows
        r = RSequence({0: 1.0}, step=1)
        sq, pair, grid_sq, mixed = check_tail_sums(r, 1, 2)
        assert sq.name == "tail_sum_sq"
        assert sq.lhs == pytest.approx(2.0 / 16.0, rel=1e-15)
        assert pair.lhs == pytest.approx(2.0 * (1.0 / 4.0) ** 2, rel=1e-15)
        assert grid_sq.lhs == pytest.approx(41.0 / 72.0, rel=1e-12)
        assert mixed.lhs == pytest.approx(41.0 / 144.0, rel=1e-12)
        for c in (sq, pair, grid_sq, mixed):
            assert c.rhs_without_constant == pytest.approx(1.0)

    def test_empty_envelope(self):
        r = RSequence({}, step=1)
        checks = check_tail_sums(r, 2, 8)
        assert [c.name for c in checks] == [
            "tail_sum_sq",
            "tail_sum_pair",
            "tail_sum_grid_sq",
            "tail_sum_mixed",
        ]
        assert all(c.lhs == 0.0 and c.ratio == 0.0 for c in checks)

    def test_rejects_bad_arguments(self):
        r = RSequence({0: 1.0}, step=1)
        with pytest.raises(ValueError):
            check_tail_sums(r, 0, 8)
        with pytest.raises(ValueError):
            check_tail_sums(r, 8, 8)

    def test_ratios_stable_under_window_doubling(self):
        spec = random_potential(0)
        r = r_sequence(spec, PER_PLUS)
        first = {c.name: c.ratio for c in check_tail_sums(r, 8, 128)}
        second = {c.name: c.ratio for c in check_tail_sums(r, 8, 256)}
        for name, ratio in first.items():
            assert second[name] == pytest.approx(ratio, rel=0.10)


class TestOffsetKernelOracles:
    """The convolution tables against the per-support-point loops."""

    CASES = [(1, 2), (2, 3), (1, 8), (4, 32), (8, 256)]
    # a point mass off the origin and a support wider than the window put
    # offsets j - 2n beyond the convolution's reach
    EDGE_ENVELOPES = [
        RSequence({6: 1.0}, step=1),
        RSequence({-40: 1.0, 0: 2.0, 40: 0.5}, step=2),
        RSequence({m: 1.0 + 0.02 * m for m in range(-30, 31)}, step=1),
    ]

    @staticmethod
    def _assert_matches_loops(r, N, K, label):
        want = _tail_sums_by_loop(r, N, K)
        got = {c.name: c.lhs for c in check_tail_sums(r, N, K)}
        assert list(got) == list(want)
        for name, value in want.items():
            _assert_rel(got[name], value, 1e-12, (*label, N, K, name))
        for n in (N + 1, -N - 1):
            _, grid = check_shift_sums(r, n, window=K)
            _assert_rel(grid.lhs, _grid_shift_sum_by_loop(r, n, K), 1e-12, (*label, n, K))

    @pytest.mark.parametrize("bc", BC_TAGS)
    def test_random_envelopes(self, bc):
        for seed in range(3):
            r = r_sequence(random_potential(seed), bc)
            for N, K in self.CASES:
                self._assert_matches_loops(r, N, K, (bc, seed))

    def test_offsets_beyond_reach(self):
        for r in self.EDGE_ENVELOPES:
            for N, K in self.CASES[:3]:
                self._assert_matches_loops(r, N, K, (r.support[0],))


class TestChainSums:
    def test_order_zero_hand_enumerated(self):
        # envelope is the single point r(-2) = 1/2; for each outer n the
        # only free end is k = -2 - n and the circle supremum sits at the
        # sample nearest to it, distance |n - k| - 1/2
        checks = check_chain_sums(ONE_POINT, DIRICHLET, 0, 1, 3)
        by_name = {c.name: c for c in checks}
        assert set(by_name) == {"chain_closed", "chain_left_free", "chain_right_free"}
        assert by_name["chain_closed"].lhs == 0.0  # r(2n) never hits the support
        want = sum(1.0 / g**2 for g in (1.5, 3.5, 5.5, 7.5))
        assert by_name["chain_left_free"].lhs == pytest.approx(want, rel=1e-12)
        assert by_name["chain_right_free"].lhs == pytest.approx(want, rel=1e-12)
        assert by_name["chain_left_free"].rhs_without_constant == pytest.approx(0.25)

    def test_order_one_hand_enumerated(self):
        checks = check_chain_sums(ONE_POINT, DIRICHLET, 1, 1, 2)
        by_name = {c.name: c for c in checks}
        # closed chain: interior j pinned to -2 - n, inner sum collapses
        want1 = 1.0 / 5.5**2 + 1.0 / 1.5**2
        assert by_name["chain_closed"].lhs == pytest.approx(want1, rel=1e-12)
        # free-end chains need k (or m) != n, which the one-point support
        # forces onto n itself: both vanish identically
        assert by_name["chain_left_free"].lhs == 0.0
        assert by_name["chain_right_free"].lhs == 0.0
        want4 = (0.25 / (5.5 * 0.5 * 5.5)) ** 2 + (0.25 / (1.5 * 0.5 * 1.5)) ** 2
        assert by_name["chain_interior_anchor"].lhs == pytest.approx(want4, rel=1e-12)
        assert by_name["chain_interior_anchor"].rhs_without_constant == pytest.approx(
            1 * 0.25**2
        )

    def test_order_zero_has_no_anchor_variant(self):
        checks = check_chain_sums(ONE_POINT, DIRICHLET, 0, 1, 3)
        assert len(checks) == 3

    def test_left_and_right_free_agree(self):
        # both free-end rows must carry the box-enumerated free-end chain:
        # the chains are term-by-term equal under renaming the free end
        for seed in range(3):
            spec = random_potential(seed)
            for bc in BC_TAGS:
                want = _chain_sums_by_enumeration(spec, bc, 1, 4, 32)
                by_name = {c.name: c.lhs for c in check_chain_sums(spec, bc, 1, 4, 32)}
                for name in ("chain_left_free", "chain_right_free"):
                    assert by_name[name] == pytest.approx(want[name], rel=1e-12), (seed, bc, name)

    @pytest.mark.parametrize("bc", BC_TAGS)
    @pytest.mark.parametrize("s", (0, 1))
    def test_matches_box_enumeration(self, bc, s):
        # N = 1 keeps the discs 2 <= |n| <= 4, where 2n is a support point
        # and the k != n exclusions bite
        for seed in range(3):
            spec = random_potential(seed)
            want = _chain_sums_by_enumeration(spec, bc, s, 1, 12)
            got = {c.name: c.lhs for c in check_chain_sums(spec, bc, s, 1, 12)}
            assert set(got) == set(want)
            for name, value in want.items():
                assert got[name] == pytest.approx(value, rel=1e-12), (seed, name)

    @pytest.mark.parametrize("bc", BC_TAGS)
    @pytest.mark.parametrize("s", (0, 1))
    @pytest.mark.parametrize("N, K", [(1, 8), (4, 32), (8, 64)])
    def test_envelope_read_once_per_point(self, monkeypatch, bc, s, N, K):
        calls = []
        original = RSequence.__call__

        def counted(self, m):
            calls.append(m)
            return original(self, m)

        monkeypatch.setattr(RSequence, "__call__", counted)
        spec = random_potential(4)
        check_chain_sums(spec, bc, s, N, K)
        discs = sum(1 for n in disc_centers(bc, K) if abs(n) > N)
        support = len(r_sequence(spec, bc).support)
        assert len(calls) <= discs + support

    def test_rejects_unsupported_order(self):
        with pytest.raises(ValueError):
            check_chain_sums(ONE_POINT, DIRICHLET, 2, 1, 8)
        with pytest.raises(ValueError):
            check_chain_sums(ONE_POINT, DIRICHLET, 0, 0, 8)


class TestCircleDoubleSum:
    def test_matches_manual_maximum(self):
        spec = random_potential(5)
        n, K, samples = 6, 16, 8
        want = max(
            dominated_hs_norm(spec, PER_PLUS, lam, K) ** 2
            for lam in circle_samples(n, 0.5, samples)
        )
        check = check_circle_double_sum(spec, PER_PLUS, n, K, samples)
        assert check.lhs == pytest.approx(want, rel=1e-15)

    def test_rejects_center_zero(self):
        with pytest.raises(ValueError):
            check_circle_double_sum(random_potential(0), PER_PLUS, 0, 16)


class TestBattery:
    def test_shape_and_no_violations(self):
        checks = run_battery(seed=0, draws=1, Ns=(4,), K=32, operator_K=16)
        # per bc: 2 shift + 1 circle + 4 tail + 3 chain(s=0) + 4 chain(s=1)
        assert len(checks) == 3 * 14
        assert all("draw" in c.parameters for c in checks)
        assert violations(checks) == []
        families = worst_ratios(checks)
        assert len(families) == 11

    def test_deterministic(self):
        a = run_battery(seed=3, draws=1, Ns=(4,), K=32, operator_K=16)
        b = run_battery(seed=3, draws=1, Ns=(4,), K=32, operator_K=16)
        assert a == b

    def test_violation_gates(self):
        hard = BoundCheck(HARD_CHECKS[0], 1.5, 1.0, 1.5, {})
        soft_ok = BoundCheck("grid_shift_sum", 50.0, 1.0, 50.0, {})
        soft_bad = BoundCheck("grid_shift_sum", 150.0, 1.0, 150.0, {})
        broken = BoundCheck("tail_sum_sq", 1.0, 0.0, math.inf, {})
        assert violations([hard, soft_ok, soft_bad, broken]) == [hard, soft_bad, broken]


class TestTailNormProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        support=st.dictionaries(
            st.integers(-12, 12), st.floats(0, 4, allow_nan=False), max_size=8
        ),
        m=st.integers(0, 12),
    )
    def test_tail_monotone(self, support, m):
        from diracproj.potential import tail_norm

        assert tail_norm(support, m) + 1e-15 >= tail_norm(support, m + 1)
