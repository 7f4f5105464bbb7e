"""Shipping gate: the ten release criteria, one test line each.

Each test states its criterion in the docstring and asserts it at the
stated tolerance, nothing looser.  Criterion 3 is split into its two
clauses so each reports its own line.  The first clause (03a) draws its
potentials at norm 0.3: its inner window N < |n| <= 16 exists only when
the verified threshold N is small, and at unit norm N lands in 17..30,
past the window's edge (see the docstring of that test).
"""

import math
import time

import numpy as np
import pytest

from diracproj.bounds import check_chain_sums, check_shift_sums, run_battery, worst_ratios
from diracproj.decomposition import (
    FunctionVector,
    disc_expansion,
    expand,
    reconstruction_curve,
    unconditionality_test,
)
from diracproj.operator import (
    build_operator,
    classify_bc,
    disc_centers,
    eigen,
)
from diracproj.potential import (
    BC_TAGS,
    PotentialSpec,
    RSequence,
    r_sequence,
    random_potential,
    tail_norm,
)
from diracproj.projections import (
    ContourSpec,
    deviation_report,
    global_projection,
    localization_counts,
    riesz_projection,
)
from diracproj.resolvent import circle_norm_profile, find_threshold_n
from test_projections import free_matrix

CONSTANT = PotentialSpec(p_even={0: 1.0}, q_even={0: 1.0}, p_odd={}, q_odd={}, max_mode=0)
# the canonical coupling quadruple (a, b, c, d) of each named bc
BC_QUADRUPLES = {"per+": (0, -1, -1, 0), "per-": (0, 1, 1, 0), "dir": (-1, 0, 0, -1)}


def band_limited(op, max_abs_n, seed):
    rng = np.random.default_rng(seed)
    idx = [(n, ch) for (n, ch) in op.basis.indices if abs(n) <= max_abs_n]
    vals = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
    vals /= np.linalg.norm(vals)
    return expand({i: v for i, v in zip(idx, vals)}, op.basis)


def test_criterion_01_free_operator_exactness():
    """v = 0, all bc, K = 64, 64 nodes: contour projections reproduce the
    exact free ones to 1e-10 in HS norm with the right ranks, under 30 s."""
    started = time.perf_counter()
    for bc in BC_TAGS:
        op = build_operator(PotentialSpec.zero(), bc, 64)
        expected_rank = 1 if bc == "dir" else 2
        for n in disc_centers(bc, 32):
            p = riesz_projection(op, ContourSpec(n, 0.5, 64))
            p0 = free_matrix(bc, n, 64)
            assert np.linalg.norm(p.matrix - p0) <= 1e-10, (bc, n)
            assert p.rank == np.trace(p0).real == expected_rank, (bc, n)
    assert time.perf_counter() - started < 30.0


def test_criterion_02_constant_potential_oracle():
    """P = Q = 1, per+, K = 64: eigenvalues inside |z| <= 16 match the block
    values +-sqrt(n^2+1) to 1e-8; every even disc |n| >= 2 captures 2."""
    op = build_operator(CONSTANT, "per+", 64)
    vals, _ = eigen(op)
    oracle = np.array(
        [s * math.sqrt(n * n + 1) for n in range(0, 20, 2) for s in (1, -1)]
    )
    checked = 0
    for lam in vals:
        if abs(lam) <= 16:
            assert np.min(np.abs(lam - oracle)) <= 1e-8, lam
            checked += 1
    assert checked >= 16
    counts = localization_counts(op, 0.5)
    for n, count in counts.items():
        if abs(n) >= 2:
            assert count == 2, (n, count)


def test_criterion_03a_deviations_halve_across_window():
    """Five seeded potentials of norm 0.3, each bc, K = 64: the deviation
    sum over 16 < |n| <= 32 is at most half the sum over N < |n| <= 16.

    The deviations decay like 1/|n|, so each unsquared sum over a dyadic
    shell is about the same; halving needs an inner window spanning a
    factor of about 4, i.e. N <= 4.  At norm 0.3 the verified threshold is
    1 (3 for seed 1 under dir).  At unit norm it is 17..30, which leaves
    the inner window empty, and moving the windows out past 4N would need
    K >= 256.  Up to about 0.3 the deviations are first order in v: at norm
    0.1 the ratios agree with those at 0.3 within 0.002 wherever N is the
    same.  At 0.5, N is 4..7, the ratios reach 0.81 and the clause fails,
    so it still detects a decay that is too slow for its windows.
    """
    failures = []
    for seed in range(5):
        spec = random_potential(seed, norm=0.3)
        for bc in BC_TAGS:
            N = find_threshold_n(spec, bc, 64)
            inner = [n for n in disc_centers(bc, 16) if abs(n) > N]
            assert inner, (
                f"(seed, bc, N) = {(seed, bc, N)}: verified threshold is past "
                "the inner window's edge 16, so N < |n| <= 16 holds no disc"
            )
            rep = deviation_report(build_operator(spec, bc, 64), N, N)
            first = sum(d for n, d in zip(rep.discs, rep.deviations) if N < abs(n) <= 16)
            second = sum(d for n, d in zip(rep.discs, rep.deviations) if 16 < abs(n) <= 32)
            if not second <= 0.5 * first:
                failures.append((seed, bc, N, round(first, 6), round(second, 6)))
    assert not failures, (
        "second-half deviation sum exceeds half the first-half sum for "
        f"(seed, bc, N, first, second) = {failures}"
    )


def test_criterion_03b_deviations_stable_under_truncation_doubling():
    """Same potentials: per-disc deviations move <= 1e-6 when K: 64 -> 128."""
    for seed in range(5):
        spec = random_potential(seed)
        for bc in BC_TAGS:
            t64, t128 = find_threshold_n(spec, bc, 64), find_threshold_n(spec, bc, 128)
            N = max(t64, t128)
            shared = [n for n in disc_centers(bc, 32) if abs(n) > N]
            if not shared:
                continue  # threshold consumed the whole K = 64 window
            r64 = deviation_report(build_operator(spec, bc, 64), N, t64)
            r128 = deviation_report(build_operator(spec, bc, 128), N, t128)
            d64, d128 = (dict(zip(r.discs, r.deviations)) for r in (r64, r128))
            drift = max(abs(d64[n] - d128[n]) for n in shared)
            assert drift <= 1e-6, (seed, bc, drift)


def test_criterion_04_threshold_certifies_smallness():
    """find_threshold_n returns N with every sampled outer-circle HS norm
    <= 1/2, unchanged when the circle sampling is doubled."""
    spec = random_potential(0)
    for bc in BC_TAGS:
        N = find_threshold_n(spec, bc, 64, 16)
        profile = circle_norm_profile(spec, bc, 64, 16)
        outer = {n: v for n, v in profile.items() if abs(n) > N}
        assert outer, bc
        assert max(outer.values()) <= 0.5, bc
        assert find_threshold_n(spec, bc, 64, 32) == N, bc


def test_criterion_05_quadrature_convergence():
    """Node doubling contracts the projection by 10x or better."""
    op = build_operator(CONSTANT, "per+", 64)
    p = {
        m: riesz_projection(op, ContourSpec(2, 0.5, m), quality_threshold=None)
        for m in (16, 32, 64)
    }
    assert np.linalg.norm(p[32].matrix - p[64].matrix) <= 0.1 * np.linalg.norm(p[16].matrix - p[32].matrix)


def test_criterion_06_projection_algebra():
    """Idempotency and pairwise products <= 1e-6; the global piece plus the
    window discs resolve band-limited inputs to 1e-5."""
    spec = random_potential(0)
    op = build_operator(spec, "per+", 128)
    N = find_threshold_n(spec, "per+", 128)
    S = global_projection(op, N)
    by_dist = sorted((n for n in disc_centers("per+", 64) if abs(n) > N), key=abs)
    chosen = by_dist[:2] + by_dist[-2:]  # innermost and outermost discs
    projs = [riesz_projection(op, ContourSpec(n, 0.5, 64)) for n in chosen]
    for p in projs + [S]:
        assert np.linalg.norm(p.matrix @ p.matrix - p.matrix) <= 1e-6
    for i, p in enumerate(projs):
        assert np.linalg.norm(p.matrix @ S.matrix) <= 1e-6
        assert np.linalg.norm(S.matrix @ p.matrix) <= 1e-6
        for q in projs[i + 1 :]:
            assert np.linalg.norm(p.matrix @ q.matrix) <= 1e-6
    f = band_limited(op, 8, 42)
    [(_, err)] = reconstruction_curve(disc_expansion(f, op, N, N, 64), [64])
    assert err <= 1e-5


def test_criterion_07_reconstruction():
    """Unit-norm inputs band-limited to |n| <= 8: errors nonincreasing in M
    and <= 1e-4 at M = 32; eigenvector inputs come back to 1e-6."""
    for seed in (0, 3):
        spec = random_potential(seed)
        op = build_operator(spec, "per+", 96)
        N = find_threshold_n(spec, "per+", 96)
        f = band_limited(op, 8, 7)
        shells = sorted({abs(n) for n in disc_centers("per+", 32) if abs(n) > N})
        curve = reconstruction_curve(disc_expansion(f, op, N, N, shells[-1]), shells)
        errs = [e for _, e in curve]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:])), (seed, errs)
        assert curve[-1][0] == 32
        assert errs[-1] <= 1e-4, (seed, errs[-1])
        vals, vecs = eigen(op)
        n0 = N + 2 if (N + 2) % 2 == 0 else N + 3
        i0 = int(np.argmin(np.abs(vals - n0)))
        y = vecs[:, i0]
        fe = FunctionVector(op.basis, y / np.linalg.norm(y))
        [(_, err_e)] = reconstruction_curve(disc_expansion(fe, op, N, N, 32), [32])
        assert err_e <= 1e-6, (seed, err_e)


def test_criterion_08_unconditional_reordering():
    """Ten seeded reorderings reach the same terminal error to 1e-10; the
    excursion constant moves no more than +-50% across reordering seeds."""
    spec = random_potential(0)
    op = build_operator(spec, "per+", 64)
    N = find_threshold_n(spec, "per+", 64)
    M = 32
    rng = np.random.default_rng(11)
    win = [(n, ch) for (n, ch) in op.basis.indices if N < abs(n) <= M]
    vals = rng.standard_normal(len(win)) + 1j * rng.standard_normal(len(win))
    vals /= np.linalg.norm(vals)
    f = expand({i: v for i, v in zip(win, vals)}, op.basis)
    expansion = disc_expansion(f, op, N, N, M)
    constants = []
    for s in (0, 1, 2):
        rep = unconditionality_test(expansion, trials=10, seed=s)
        assert max(rep.trial_terminals) - min(rep.trial_terminals) <= 1e-10
        assert abs(rep.base_error - max(rep.trial_terminals)) <= 1e-10
        constants.append(rep.excursion_constant)
    mean = sum(constants) / len(constants)
    assert all(0.5 * mean <= c <= 1.5 * mean for c in constants), constants


def test_criterion_09_bounds_battery():
    """Constant-free row bound holds on 1000 random cases; fitted constants
    stable to 10% under window doubling; the mirrored chains agree to 1e-12;
    the closed chain hits 4 E_N(r)^2 exactly on an aligned envelope."""
    rng = np.random.default_rng(2026)
    for _ in range(1000):
        size = int(rng.integers(1, 9))
        modes = rng.choice(np.arange(-10, 11), size=size, replace=False)
        weights = np.abs(rng.standard_normal(size))
        n = int(rng.integers(1, 13)) * (1 if rng.integers(2) else -1)
        r = RSequence({int(m): float(w) for m, w in zip(modes, weights)}, step=1)
        row, _ = check_shift_sums(r, n, window=4)
        assert row.ratio <= 1.0, (dict(r.values), n, row.ratio)

    w128 = worst_ratios(run_battery(seed=0, draws=3, K=128, operator_K=32))
    w256 = worst_ratios(run_battery(seed=0, draws=3, K=256, operator_K=32))
    for family, ratio in w128.items():
        assert abs(w256[family] - ratio) <= 0.10 * ratio, (family, ratio, w256[family])

    for seed in range(3):
        spec = random_potential(seed)
        for bc in BC_TAGS:
            by_name = {c.name: c for c in check_chain_sums(spec, bc, 1, 4, 64)}
            left = by_name["chain_left_free"].lhs
            right = by_name["chain_right_free"].lhs
            assert abs(left - right) <= 1e-12 * max(1.0, left), (seed, bc)

    aligned = PotentialSpec(
        p_even={6: 1.2, -6: 0.8}, q_even={}, p_odd={}, q_odd={}, max_mode=6
    )
    r = r_sequence(aligned, "dir")
    assert sorted(r.support) == [-6, 6]
    closed = next(
        c for c in check_chain_sums(aligned, "dir", 0, 2, 8) if c.name == "chain_closed"
    )
    want = 4.0 * tail_norm(r, 2) ** 2
    assert abs(closed.lhs - want) <= 1e-12 * want


def test_criterion_10_classification():
    """Coupling quadruples: both periodic-type ones are regular but not
    strictly ((b-c)^2 + 4ad = 0); the separated one is strictly regular;
    random strictly regular quadruples always have distinct roots."""
    for bc in ("per+", "per-"):
        a, b, c, d = BC_QUADRUPLES[bc]
        res = classify_bc(a, b, c, d)
        assert res.regular and not res.strictly_regular, bc
        assert (b - c) ** 2 + 4 * a * d == 0, bc
    res = classify_bc(*BC_QUADRUPLES["dir"])
    assert res.regular and res.strictly_regular
    rng = np.random.default_rng(7)
    strict = 0
    for _ in range(200):
        quad = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        res = classify_bc(*quad)
        if res.strictly_regular:
            strict += 1
            z1, z2 = res.roots
            assert abs(z1 - z2) > 1e-10
    assert strict >= 150
