"""Inequality audits: hand-enumerated oracles, closed forms, and the battery.

Derived oracle values in this file were computed by hand from the summand
definitions (tiny supports, every term written out) and are frozen here;
the module under test must reproduce them exactly, not just satisfy the
inequalities.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from diracproj import bounds
from diracproj.bounds import (
    BoundCheck,
    HARD_CHECKS,
    _check,
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
    rho,
    validate_bc,
)
from diracproj.resolvent import CIRCLE_PEAKS
from helpers import STRUCTURED, circle_samples, structured_potential, zero_potential
from test_resolvent import circle_double_sums_unblocked, dominated_hs_norm

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


def _chain_sums_by_broadcast(spec, bc, s, N, K, samples=16):
    """check_chain_sums as it stood before the circle-offset tables: every
    gap broadcast over (disc, sample, support), the anchor's sample maximum
    taken one sample at a time over a (disc, support, support) array."""
    validate_bc(bc)
    if s not in (0, 1):
        raise ValueError("chain sums are implemented for s in {0, 1} only")
    if N < 1:
        raise ValueError("N must be a positive integer")
    r = r_sequence(spec, bc)
    supp = np.array(r.support, dtype=int)
    ra = np.array([r(int(a)) for a in supp], dtype=float)
    diffs = np.unique(supp[:, None] - supp)
    diffs = diffs[diffs != 0]
    shifted = (supp[:, None] + diffs[:, None, None] == supp) @ ra  # r(a + d)
    rho_sq = rho(spec, bc, N) ** 2

    # axes: (disc, sample, support [, difference | support])
    centers = np.array([n for n in disc_centers(bc, K) if abs(n) > N], dtype=int)
    ns = centers[:, None, None]
    lams = circle_samples(centers[:, None], 0.5, samples)[:, :, None]
    gap_n = np.abs(lams - ns)
    gap_a = np.abs(lams - (supp - ns))
    # one-factor end terms (r(x + n) / |l - x|)^2 for x = a - n != n
    ends = np.where(supp != 2 * ns, ra / gap_a, 0.0) ** 2
    anchor = 0.0
    if s == 0:
        hit = ((supp == 2 * ns) @ ra)[:, :, None]
        closed = float(np.max(hit**2 / gap_n**2, axis=1).sum())
        free = float((ends / gap_n**2).max(axis=1).sum())
    else:
        inner = (ra**2 / gap_a).sum(axis=2, keepdims=True) / gap_n**2
        closed = float(np.max(inner**2, axis=1).sum())
        chain = (ra / gap_a) @ shifted.T / (np.abs(lams - (ns + diffs)) * gap_n)
        free = float((chain**2).max(axis=1).sum())
        # the sample maximum of each (disc, k, m) pair, one sample at a time,
        # keeps the temporary at disc x support x support
        left = ends / gap_n**2
        pairs = np.zeros((centers.size, supp.size, supp.size))
        for i in range(samples):
            np.maximum(pairs, left[:, i, :, None] * ends[:, i, None, :], out=pairs)
        anchor = float(pairs.sum())

    params = {"bc": bc, "s": s, "N": N, "K": K, "samples": samples}
    rhs = r.norm_sq * rho_sq**s
    checks = [
        _check("chain_closed", closed, rhs, dict(params)),
        _check("chain_left_free", free, rhs, dict(params)),
        _check("chain_right_free", free, rhs, dict(params)),
    ]
    if s >= 1:
        anchor_rhs = s * r.norm_sq**2 * rho_sq ** (s - 1)
        checks.append(_check("chain_interior_anchor", anchor, anchor_rhs, dict(params)))
    return checks


def _chain_sums_full_grid(spec, bc, s, N, K, samples=16):
    """check_chain_sums as it stood before the two real points, in the same
    arithmetic: the circle-offset table, the free-end factors and the pair
    table on every point of a samples-point grid, the s = 1 chains streamed
    over all of them, and the anchor's disc sum the same bincount matvec."""
    r = r_sequence(spec, bc)
    supp = np.array(r.support, dtype=int)
    _, ra, wa = r.support_arrays
    rho_sq = rho(spec, bc, N) ** 2
    centers = np.array([n for n in disc_centers(bc, K) if abs(n) > N], dtype=int)
    u = supp - 2 * centers[:, None]
    lo = u.min(initial=0)
    z = circle_samples(0, 0.5, samples)[:, None]
    recip = 1.0 / np.sqrt((z.real - np.arange(lo, u.max(initial=0) + 1)) ** 2 + z.imag**2)  # (sample, u)
    at, origin = u - lo, int(-lo)
    anchor = 0.0
    if s == 0:
        end_maxima = recip.max(axis=0) ** 2
        end_maxima[origin] = 0.0
        closed = 4.0 * float(((at == origin) @ wa).sum())
        free = 4.0 * float((end_maxima[at] @ wa).sum())
    else:
        diffs = np.setdiff1d(supp[:, None] - supp, [0])
        shift = supp[:, None] + diffs[:, None, None] == supp
        links = (ra * (shift @ ra)).T * (2.0 / np.abs(z - diffs))[:, None, :]
        closed_max = np.zeros(at.shape[0])
        free_max = np.zeros((at.shape[0], diffs.size))
        block = np.empty_like(free_max)
        for sample_recip, sample_links in zip(recip, links):
            gaps = sample_recip[at]
            np.maximum(closed_max, gaps @ wa, out=closed_max)
            np.maximum(free_max, np.matmul(gaps, sample_links, out=block), out=free_max)
        closed = float(np.square(4.0 * closed_max).sum())
        free = float(np.square(free_max, out=free_max).sum())
        ends_sq = recip**2
        ends_sq[:, origin] = 0.0
        width, span = supp.max(initial=0) - supp.min(initial=0), recip.shape[1]
        pair = np.zeros((width // r.step + 1, span))
        for row, t in zip(pair, range(0, width + 1, r.step)):
            np.max(ends_sq[:, : span - t] * ends_sq[:, t:], axis=0, out=row[: span - t])
        discs = np.bincount(at[:, :1].ravel()).astype(float)
        per_point = np.empty((pair.shape[0], supp.size))
        for k, offset in enumerate(supp - supp[:1]):
            per_point[:, k] = pair[:, offset : offset + discs.size] @ discs
        lower = np.minimum.outer(np.arange(supp.size), np.arange(supp.size))
        anchor = 4.0 * float(wa @ per_point[np.abs(supp[:, None] - supp) // r.step, lower] @ wa)

    params = {"bc": bc, "s": s, "N": N, "K": K, "samples": samples}
    rhs = r.norm_sq * rho_sq**s
    checks = [
        _check("chain_closed", closed, rhs, dict(params)),
        _check("chain_left_free", free, rhs, dict(params)),
        _check("chain_right_free", free, rhs, dict(params)),
    ]
    if s >= 1:
        checks.append(_check("chain_interior_anchor", anchor, s * r.norm_sq**2 * rho_sq ** (s - 1), dict(params)))
    return checks


def _circle_double_sum_full_grid(spec, bc, n, K, samples):
    """check_circle_double_sum's lhs as it stood before the two real points:
    the one-disc scan kernel on every point of a samples-point grid."""
    weights = {j: v * v for j, v in r_sequence(spec, bc).values.items()}
    grid = circle_samples(0, 0.5, samples)
    return float(circle_double_sums_unblocked(weights, bc, K, np.array([n], dtype=float), grid).max())


def _offset_table_full_grid(d, T, a, b):
    """The step-d kernel g_d(u), -2dT <= u <= 2dT, as one convolution over
    the whole grid [-dT, dT], the off-class entries of the t factor zeroed."""
    x = np.arange(-d * T, d * T + 1)
    recip = np.zeros(x.size)
    recip[x != 0] = 1.0 / np.abs(x[x != 0])
    return np.convolve(np.where(x % d == 0, recip, 0.0) ** a, recip**b)


def _offset_table_by_class(d, T, a, b):
    """The step-d kernel g_d(u), -2dT <= u <= 2dT, one convolution per
    residue class of u mod d, as _offset_table built it before the step-1
    table."""
    x = np.arange(-d * T, d * T + 1)
    recip = np.zeros(x.size)
    recip[x != 0] = 1.0 / np.abs(x[x != 0])
    # x = dt runs over recip[::d]; u = dt + y with y = u - dt in u's class
    table = np.empty(2 * x.size - 1)
    for c in range(d):
        table[c::d] = np.convolve(recip[::d] ** a, recip[c::d] ** b)
    return table


def _anchor_pairs_by_gather(bc, N, K, support, step):
    """The anchor's pair table summed over discs by gathering the pair table
    at every (disc, support) offset, as _chain_tables did before the
    bincount matvec."""
    at, recip, origin = bounds._circle_offsets(bounds._Tables(), bc, N, K, support)
    ends_sq = recip**2
    ends_sq[:, origin] = 0.0
    supp = np.array(support, dtype=int)
    width, span = supp.max(initial=0) - supp.min(initial=0), recip.shape[1]
    padded = np.pad(ends_sq, ((0, 0), (0, width)))
    pair = np.array([(ends_sq * padded[:, t : t + span]).max(axis=0) for t in range(0, width + 1, step)])
    per_point = pair[:, at].sum(axis=1)
    lower = np.minimum.outer(np.arange(supp.size), np.arange(supp.size))
    return per_point[np.abs(supp[:, None] - supp) // step, lower]


def _resonance_by_loop(n_max):
    """resonance_grid_sum's check as one explicit sum per n, in a loop."""
    worst_ratio = -1.0
    worst_case = None
    for n in range(1, n_max + 1):
        P = max(2 * n, 100)
        p = np.arange(0, P + 1)
        gaps = (n * n - p * p).astype(float)
        gaps[n] = np.inf
        vals = 1.0 / gaps**2
        total = vals[0] + 2.0 * vals[1:].sum()
        # beyond P >= 2n: p^2 - n^2 >= (3/4) p^2, two signed tails
        total += 2.0 * (16.0 / 9.0) / (3.0 * P**3)
        ratio = total / (4.0 / n**2)
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst_case = (n, total)
    return _check(
        "resonance_grid_sum",
        worst_case[1],
        4.0 / worst_case[0] ** 2,
        {"n_max": n_max, "worst_n": worst_case[0]},
    )


def _assert_rel(got, want, tol, label):
    if want == 0.0:
        assert got == 0.0, label
    else:
        assert abs(got - want) <= tol * abs(want), label


def _inverse_square_tail_one_array(n_max):
    """check_elementary's inverse_square_tail row from one cumsum over all
    20 n_max terms, summed from n = top down and read back as suffix sums."""
    top = 20 * n_max
    inv_sq = 1.0 / np.arange(1, top + 1, dtype=float) ** 2
    suffix = np.concatenate([np.cumsum(inv_sq[::-1])[::-1], [0.0]])
    Ns = np.arange(1, n_max + 1)
    lhs_tail = suffix[Ns] + 1.0 / top
    worst = int(np.argmax(lhs_tail * Ns))
    return bounds._check(
        "inverse_square_tail",
        lhs_tail[worst],
        1.0 / Ns[worst],
        {"n_max": n_max, "worst_N": int(Ns[worst]), "truncation": top},
    )


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

    @pytest.mark.parametrize("n_max", (1, 1000, 10_000, 70_000))
    def test_running_tail_matches_one_array_cumsum(self, n_max):
        # 20 n_max = 1.4M terms at 70,000
        assert check_elementary(n_max)[0] == _inverse_square_tail_one_array(n_max)


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

    @pytest.mark.parametrize("d", (1, 2, 4))
    @pytest.mark.parametrize("T", (1, 2, 3, 8, 512))
    def test_residue_classes_match_full_grid(self, d, T):
        # every offset u in dZ, u = 0 and the reach u = +-2dT included
        u = np.arange(-2 * d * T, 2 * d * T + 1, d)
        for a, b in ((1, 1), (2, 2), (1, 2)):
            got = bounds._offset_kernel(bounds._Tables(), d, T, a, b, u)
            want = _offset_table_full_grid(d, T, a, b)[::d]
            assert got.shape == want.shape == (4 * T + 1,)
            assert want[0] > 0.0 and want[2 * T] > 0.0 and want[-1] > 0.0
            assert np.all(np.abs(got - want) <= 2e-15 * want), (d, T, a, b)

    @pytest.mark.parametrize("d", (1, 2, 4))
    @pytest.mark.parametrize("T", (1, 2, 3, 8, 512))
    def test_step_kernel_is_the_scaled_step_1_table(self, d, T):
        # g_d(u) = d^-(a+b) g_1(u/d) on dZ, bit for bit against the per-class build;
        # one step past the reach reads 0
        u = np.arange(-2 * d * T - d, 2 * d * T + d + 1, d)
        for a, b in ((1, 1), (2, 2), (1, 2)):
            got = bounds._offset_kernel(bounds._Tables(), d, T, a, b, u)
            want = np.concatenate([[0.0], _offset_table_by_class(d, T, a, b)[::d], [0.0]])
            assert np.array_equal(got, want), (d, T, a, b)


class TestChainSumOracles:
    """The circle-offset and pair tables against the broadcast chain sums,
    and the closed-form resonance sums against the per-n loop."""

    CASES = [(1, 8), (1, 12), (2, 16), (4, 64), (8, 256)]
    # r(+-12) and r(+-10) put a = 2n on the support at n = +-6 and +-5, so
    # the u = 0 exclusions bite under every bc
    POINT_MASSES = [
        PotentialSpec(p_even={12: 1.0}, q_even={}, p_odd={}, q_odd={}, max_mode=12),
        PotentialSpec(p_even={10: 1.0}, q_even={}, p_odd={}, q_odd={}, max_mode=10),
    ]

    @staticmethod
    def _assert_rows_match(got, want, label):
        assert [c.name for c in got] == [c.name for c in want], label
        for g, w in zip(got, want):
            assert g.parameters == w.parameters, label
            for field in ("lhs", "rhs_without_constant", "ratio"):
                _assert_rel(getattr(g, field), getattr(w, field), 1e-12, (*label, g.name, field))

    def _assert_chains_match(self, spec, bc, s, label):
        for N, K in self.CASES:
            got = check_chain_sums(spec, bc, s, N, K)
            self._assert_rows_match(got, _chain_sums_by_broadcast(spec, bc, s, N, K), (*label, N, K))

    @pytest.mark.parametrize("bc", BC_TAGS)
    @pytest.mark.parametrize("s", (0, 1))
    def test_random_envelopes(self, bc, s):
        for seed in range(3):
            self._assert_chains_match(random_potential(seed), bc, s, (bc, s, seed))

    @pytest.mark.parametrize("bc", BC_TAGS)
    @pytest.mark.parametrize("s", (0, 1))
    def test_zero_and_point_mass_envelopes(self, bc, s):
        self._assert_chains_match(zero_potential(8), bc, s, (bc, s, "zero"))
        hit = 0
        for spec in self.POINT_MASSES:
            self._assert_chains_match(spec, bc, s, (bc, s, spec.max_mode))
            support = r_sequence(spec, bc).support
            hit += sum(2 * n in support for n in disc_centers(bc, 8) if abs(n) > 1)
        assert hit > 0

    @pytest.mark.parametrize("bc", BC_TAGS)
    def test_anchor_disc_sums_match_gather(self, bc):
        envelopes = [random_potential(seed) for seed in range(3)]
        envelopes += [zero_potential(8), *self.POINT_MASSES]
        for spec in envelopes:
            r = r_sequence(spec, bc)
            for N, K in self.CASES:
                tables = bounds._Tables()
                _, _, got = bounds._chain_tables(tables, bc, 1, N, K, r.support, r.step)
                want = _anchor_pairs_by_gather(bc, N, K, r.support, r.step)
                assert got.shape == want.shape == (len(r.support),) * 2
                assert np.all(np.abs(got - want) <= 1e-14 * want), (bc, spec.max_mode, N, K)

    @pytest.mark.parametrize("n_max", (1, 49, 50, 51, 1000, 5000))
    def test_resonance_closed_form_matches_loop(self, n_max):
        # the window P = max(2n, 100) leaves its floor at n = 50, so 49, 50
        # and 51 end below, on and past that edge
        got = check_elementary(n_max)[1]
        self._assert_rows_match([got], [_resonance_by_loop(n_max)], (n_max,))


class TestPeakSamples:
    """Chain and circle maxima read at the circle's real points n +- 1/2
    alone, against the full-grid evaluation they replaced: bit for bit on
    an even grid, which holds those points, at least the maximum of an odd
    grid, which misses theta = pi, and within rounding of a 4096-point grid
    (the module docstring's log-convexity argument)."""

    @staticmethod
    def _assert_rows_reach_grid(got, want, samples, label):
        assert [c.name for c in got] == [c.name for c in want], label
        for g, w in zip(got, want):
            assert g.rhs_without_constant == w.rhs_without_constant, label
            if samples % 2 == 0:
                assert (g.lhs, g.ratio) == (w.lhs, w.ratio), (*label, g.name)
            else:
                assert g.lhs >= w.lhs, (*label, g.name)

    @pytest.mark.parametrize("bc", BC_TAGS)
    @pytest.mark.parametrize("samples", (16, 8, 6, 15, 9))
    def test_chain_rows_match_full_grid(self, bc, samples):
        for seed in range(3):
            spec = random_potential(seed)
            for N, K in ((1, 12), (4, 64), (8, 256)):
                for s in (0, 1):
                    got = check_chain_sums(spec, bc, s, N, K)
                    want = _chain_sums_full_grid(spec, bc, s, N, K, samples)
                    self._assert_rows_reach_grid(got, want, samples, (seed, N, K, s))

    @pytest.mark.parametrize("bc", BC_TAGS)
    @pytest.mark.parametrize("samples", (16, 8, 6, 15, 9))
    def test_circle_double_sum_matches_full_grid(self, bc, samples):
        specs = [random_potential(seed) for seed in range(3)] + [structured_potential(kind) for kind in STRUCTURED]
        for k, spec in enumerate(specs):
            for n in (d for d in disc_centers(bc, 12) if abs(d) > 4):
                for K in (16, 64):
                    got = check_circle_double_sum(spec, bc, n, K).lhs
                    want = _circle_double_sum_full_grid(spec, bc, n, K, samples)
                    assert got == want if samples % 2 == 0 else got >= want, (k, n, K)

    @pytest.mark.parametrize("bc", BC_TAGS)
    def test_even_grids_match_a_fine_grid(self, bc):
        spec = random_potential(0)
        probe = next(n for n in disc_centers(bc, 32) if n > 8)
        fine_chains = {s: _chain_sums_full_grid(spec, bc, s, 4, 64, 4096) for s in (0, 1)}
        for s, fine in fine_chains.items():
            for got, want in zip(check_chain_sums(spec, bc, s, 4, 64), fine):
                _assert_rel(got.lhs, want.lhs, 1e-15, (s, got.name))
        for k, spec in enumerate([spec, *(structured_potential(kind) for kind in STRUCTURED)]):
            fine_circle = _circle_double_sum_full_grid(spec, bc, probe, 64, 4096)
            _assert_rel(check_circle_double_sum(spec, bc, probe, 64).lhs, fine_circle, 1e-15, (k,))

    def test_offset_table_holds_the_peaks_alone(self):
        # one row of recip per real point n +- 1/2, each 1/|z - u| on the u axis
        support = r_sequence(random_potential(0), DIRICHLET).support
        at, recip, origin = bounds._circle_offsets(bounds._Tables(), DIRICHLET, 8, 64, support)
        assert recip.shape[0] == 2
        u = np.arange(recip.shape[1]) - origin
        assert np.array_equal(recip, 1.0 / np.abs(CIRCLE_PEAKS[:, None] - u))
        # the grid's theta = 0 and pi rows, as the 16-point table held them
        z = circle_samples(0, 0.5, 16)[[0, 8], None]
        assert np.array_equal(recip, 1.0 / np.sqrt((z.real - u) ** 2 + z.imag**2))


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

    @pytest.mark.parametrize("bc, K", [(PER_PLUS, 9), (DIRICHLET, 8), ("per-", 8)])
    @pytest.mark.parametrize("s", (0, 1))
    def test_rejects_window_without_discs(self, bc, K, s):
        # the even lattice has no point with 8 < |n| <= 9: a chain row over
        # no disc would read 0 and pass vacuously
        with pytest.raises(ValueError, match=re.escape(f"window K = {K} holds no disc of the {bc} lattice past N = 8")):
            check_chain_sums(random_potential(0), bc, s, 8, K)
        assert len(check_chain_sums(random_potential(0), bc, s, 8, 10)) == 3 + s


class TestCircleDoubleSum:
    def test_matches_manual_maximum(self):
        spec = random_potential(5)
        # the 8-point grid holds the real points n +- 1/2, where the maximum lies
        n, K = 6, 16
        want = max(
            dominated_hs_norm(spec, PER_PLUS, lam, K) ** 2
            for lam in circle_samples(n, 0.5, 8)
        )
        check = check_circle_double_sum(spec, PER_PLUS, n, K)
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

    def test_reuse_matches_lone_calls(self):
        # the battery's shared tables must give every row bit for bit what
        # one check_* call per draw gives with tables built for that call
        seed, draws, Ns = 2, 3, (4, 8)
        got = run_battery(seed=seed, draws=draws, Ns=Ns)
        want = []
        for i in range(draws):
            spec = random_potential([seed, i])
            for bc in BC_TAGS:
                r = r_sequence(spec, bc)
                probe = next(n for n in disc_centers(bc, 4 * max(Ns)) if n > max(Ns))
                rows = [*check_shift_sums(r, probe, window=256)]
                rows.append(check_circle_double_sum(spec, bc, probe, 64))
                for N in Ns:
                    rows += check_tail_sums(r, N, 256)
                    rows += check_chain_sums(spec, bc, 0, N, 256)
                    rows += check_chain_sums(spec, bc, 1, N, 256)
                want += [(c.name, {**c.parameters, "draw": i}, c.lhs, c.rhs_without_constant, c.ratio) for c in rows]
        assert [(c.name, c.parameters, c.lhs, c.rhs_without_constant, c.ratio) for c in got] == want

    def test_tables_built_once_per_battery(self, monkeypatch):
        # np.convolve builds the offset tables, _circle_offsets the chains'
        # circle-offset tables: their counts must not grow with the draws,
        # and a second battery must build them all again
        builds = {"convolve": 0, "circle": 0}
        convolve, offsets = np.convolve, bounds._circle_offsets

        def counted(name, fn):
            def call(*args, **kwargs):
                builds[name] += 1
                return fn(*args, **kwargs)

            return call

        monkeypatch.setattr(np, "convolve", counted("convolve", convolve))
        monkeypatch.setattr(bounds, "_circle_offsets", counted("circle", offsets))
        counts = []
        for draws in (1, 3, 3):
            builds.update(convolve=0, circle=0)
            run_battery(seed=1, draws=draws, Ns=(4, 8), K=32, operator_K=16)
            counts.append(dict(builds))
        # three step-1 offset tables (the shift grid and the two tail grids),
        # one convolution each, which both steps d read; one circle-offset
        # table per (bc, N), the draws sharing one support
        assert counts[0]["convolve"] == 3 and counts[0]["circle"] > 0
        assert counts[1] == counts[0] and counts[2] == counts[0]

    def test_one_envelope_per_draw_and_bc(self, monkeypatch):
        built = []
        post_init = RSequence.__post_init__

        def counted(self):
            built.append(self.step)
            post_init(self)

        monkeypatch.setattr(RSequence, "__post_init__", counted)
        run_battery(seed=2, draws=3, Ns=(4, 8))
        assert len(built) == 3 * len(BC_TAGS)

    @staticmethod
    def _peak_bytes(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_chain_sum_streams_its_samples(self):
        # with the battery's tables built, a dir s = 1 call at K = 256 holds
        # (disc, d) arrays of one point's size, 496 x 32 doubles, never both
        # points' at once
        token = bounds._BATTERY_TABLES.set(bounds._Tables())
        try:
            check_chain_sums(random_potential(0), DIRICHLET, 1, 8, 256)
            peak = self._peak_bytes(lambda: check_chain_sums(random_potential(1), DIRICHLET, 1, 8, 256))
        finally:
            bounds._BATTERY_TABLES.reset(token)
        assert peak < 512 * 1024

    # measured 1.65 MiB at K = 256 and 6.1 MiB at K = 1024; a (sample, disc,
    # support) gap table in the battery's memo put them at 3.6 and 13.9 MiB
    def test_battery_peak_memory(self):
        run_battery(seed=0, draws=1, K=256)
        assert self._peak_bytes(lambda: run_battery(seed=0, draws=2, K=256)) < 2.5 * 1024 * 1024

    def test_battery_peak_memory_wide_window(self):
        run_battery(seed=0, draws=1, K=1024)
        assert self._peak_bytes(lambda: run_battery(seed=0, draws=2, K=1024)) < 8 * 1024 * 1024

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
