"""Numerical audits of the inequalities behind quadratic closeness.

Every bound the deviation estimate rests on is checked here against honest
brute-force evaluation.  Each check reports the computed left side, the
right side *without* any absolute constant, and their ratio; for the bounds
that genuinely carry no constant the ratio must stay at or below 1, while
for the constant-bearing ones the ratio is the fitted constant, whose
stability under window doubling is the meaningful assertion.

The families, in the order they feed the main estimate:

  inverse_square_tail    sum_{n>N} 1/n^2            <  1/N
  resonance_grid_sum     sum_{p != +-n} (n^2-p^2)^-2 <  4/n^2
  row_shift_sum          sum_{k != n} r(n+k)^2/|n-k|          <= rhs  (no C)
  grid_shift_sum         sum_{i,k != n} r(i+k)^2/(|n-i||n-k|) <= C rhs
  circle_double_sum      max on the circle |l-n|=1/2 of the dominated
                         HS double sum                        <= C rhs
  tail_sum_sq / _pair / _grid_sq / _mixed
                         the four summed-over-n variants      <= C rhs
  chain_closed / _left_free / _right_free / _interior_anchor
                         squared coefficient chains of length s+2 through
                         the discs beyond N, at s = 0 and s = 1

Chain sums never need index windows: the envelope r has finite support, so
every interior chain index is pinned to finitely many lattice points.  The
tail and grid sums do need windows; those are tied to the outer truncation
K so that doubling K doubles everything that can move.

The windowed grid sums (grid_shift_sum, tail_sum_grid_sq, tail_sum_mixed)
run over window offsets i = n + d t, 0 < |t| <= T, against a support point
j of r, with partner k = j - i.  The summand's two gaps are |n - i| = d|t|
and |n - k| = |u - d t| with u = j - 2n, so for each (n, j) the inner sum
is an offset kernel g(u) = sum_t (d|t|)^-a |u - d t|^-b.  The window keeps
0 < |u - d t| <= d T, a condition on y = u - d t alone, and t ranges over
the nonzero multiples x = d t in [-d T, d T], a condition on x alone; so g
is exactly the full convolution of two reciprocal-power vectors on
[-d T, d T], evaluated as a direct sum (no FFT).  One table per summand
shape covers every (n, j); offsets beyond its reach 2 d T contribute
nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operator import disc_centers
from .potential import (
    BC_TAGS,
    PotentialSpec,
    RSequence,
    r_sequence,
    random_potential,
    rho,
    tail_norm,
    validate_bc,
)
from .resolvent import _circle_double_sums, circle_samples


@dataclass(frozen=True)
class BoundCheck:
    """One audited inequality: lhs <= C * rhs_without_constant.

    ratio = lhs / rhs_without_constant is the fitted constant (or the hard
    pass/fail number for the constant-free checks).
    """

    name: str
    lhs: float
    rhs_without_constant: float
    ratio: float
    parameters: dict


def _check(name: str, lhs: float, rhs: float, parameters: dict) -> BoundCheck:
    if rhs > 0:
        ratio = lhs / rhs
    else:
        ratio = 0.0 if lhs == 0 else math.inf
    return BoundCheck(name, float(lhs), float(rhs), float(ratio), parameters)


# -- elementary numeric sums ------------------------------------------------

def check_elementary(n_max: int = 10_000) -> list[BoundCheck]:
    """Audit the two bare lattice sums on 1 <= n, N <= n_max.

    Left sides are upper estimates: explicit partial sums plus an analytic
    bound on the discarded tail, so a pass is a pass for the infinite sums.
    Each check reports its worst case over the whole range.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    top = 20 * n_max
    inv_sq = 1.0 / np.arange(1, top + 1, dtype=float) ** 2
    # suffix[k] = sum_{n >= k+1} 1/n^2 over the kept range
    suffix = np.concatenate([np.cumsum(inv_sq[::-1])[::-1], [0.0]])
    Ns = np.arange(1, n_max + 1)
    lhs_tail = suffix[Ns] + 1.0 / top
    ratios = lhs_tail * Ns
    worst = int(np.argmax(ratios))
    first = _check(
        "inverse_square_tail",
        lhs_tail[worst],
        1.0 / Ns[worst],
        {"n_max": n_max, "worst_N": int(Ns[worst]), "truncation": top},
    )

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
    second = _check(
        "resonance_grid_sum",
        worst_case[1],
        4.0 / worst_case[0] ** 2,
        {"n_max": n_max, "worst_n": worst_case[0]},
    )
    return [first, second]


# -- single-disc shift sums ---------------------------------------------------

def _support_arrays(r: RSequence) -> tuple[np.ndarray, np.ndarray]:
    js = np.array(r.support, dtype=int)
    ws = np.array([r(int(j)) ** 2 for j in js], dtype=float)
    return js, ws


def _offset_kernel(d: int, T: int, a: int, b: int, u: np.ndarray) -> np.ndarray:
    """g(u) = sum_t (d|t|)^-a |u - dt|^-b over 0 < |t| <= T, 0 < |u - dt| <= dT.

    One convolution table (see the module docstring); offsets beyond its
    reach 2dT read as 0.
    """
    x = np.arange(-d * T, d * T + 1)
    recip = np.zeros(x.size)
    recip[x != 0] = 1.0 / np.abs(x[x != 0])
    table = np.convolve(np.where(x % d == 0, recip, 0.0) ** a, recip**b)
    reach = 2 * d * T
    inside = np.abs(u) <= reach
    return np.where(inside, table[np.where(inside, u + reach, 0)], 0.0)


def _row_shift_sum(r: RSequence, n: int) -> float:
    """Exact sum_{k != n} r(n+k)^2 / |n-k| along the support of r."""
    js, ws = _support_arrays(r)
    if js.size == 0:
        return 0.0
    gaps = np.abs(2 * n - js).astype(float)
    keep = gaps > 0
    return float((ws[keep] / gaps[keep]).sum())


def check_shift_sums(r: RSequence, n: int, window: int = 512) -> tuple[BoundCheck, BoundCheck]:
    """Audit the single-row and the full-grid shift sums at one n.

    The row sum is finite (support-limited) and carries no constant: its
    ratio must not exceed 1.  The grid sum is truncated to `window` lattice
    steps on each side of n in both indices.
    """
    if n == 0:
        raise ValueError("n must be nonzero")
    if window < 1:
        raise ValueError("window must be positive")
    d = r.step
    tail_sq = tail_norm(r, abs(n)) ** 2
    lhs_row = _row_shift_sum(r, n)
    row = _check(
        "row_shift_sum",
        lhs_row,
        r.norm_sq / abs(n) + tail_sq,
        {"n": n, "step": d, "support": len(r.support)},
    )

    js, ws = _support_arrays(r)
    lhs_grid = float(ws @ _offset_kernel(d, window, 1, 1, js - 2 * n))
    grid = _check(
        "grid_shift_sum",
        lhs_grid,
        r.norm_sq / math.sqrt(abs(n)) + tail_sq,
        {"n": n, "step": d, "window": window},
    )
    return row, grid


# -- circle check against the decay functional --------------------------------

def check_circle_double_sum(
    spec: PotentialSpec, bc: str, n: int, K: int, samples: int = 16
) -> BoundCheck:
    """Worst dominated HS double sum on the circle |l - n| = 1/2."""
    validate_bc(bc)
    if n == 0:
        raise ValueError("n must be nonzero")
    r = r_sequence(spec, bc)
    weights = {j: v * v for j, v in r.values.items()}
    worst = float(_circle_double_sums(weights, bc, K, np.array([n], dtype=float), samples).max())
    rhs = r.norm_sq / math.sqrt(abs(n)) + tail_norm(r, abs(n)) ** 2
    return _check(
        "circle_double_sum", worst, rhs, {"bc": bc, "n": n, "K": K, "samples": samples}
    )


# -- summed-over-n tail sums ---------------------------------------------------

def check_tail_sums(r: RSequence, N: int, K: int) -> list[BoundCheck]:
    """Audit the four tail sums over N < |n| <= K.

    The single-index inner sums are support-limited and therefore exact; the
    grid-like inner sums are truncated to 2K lattice steps around each n, so
    doubling K doubles both the outer reach and the inner windows.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    if K <= N:
        raise ValueError("K must exceed N")
    d = r.step
    ns = np.array([n for n in range(-K, K + 1) if abs(n) > N])
    js, ws = _support_arrays(r)
    base_rhs = r.norm_sq / N + tail_norm(r, N) ** 2
    params = {"N": N, "K": K, "step": d, "window_steps": 2 * K}

    # exact inner sums: |n - k| = |2n - j| along the support anti-diagonals
    gaps = np.abs(2 * ns[:, None] - js[None, :]).astype(float)
    live = gaps > 0
    inv = np.where(live, 1.0 / np.where(live, gaps, 1.0), 0.0)
    lhs_sq = float((inv**2 @ ws).sum())
    row_sums = inv @ ws
    lhs_pair = float((row_sums**2).sum())

    # windowed grids: the inner sums depend on (n, j) only through j - 2n
    offsets = js[None, :] - 2 * ns[:, None]
    lhs_grid_sq = float((_offset_kernel(d, 2 * K, 2, 2, offsets) @ ws).sum())
    lhs_mixed = float(row_sums @ (_offset_kernel(d, 2 * K, 1, 2, offsets) @ ws))

    return [
        _check("tail_sum_sq", lhs_sq, base_rhs, dict(params)),
        _check("tail_sum_pair", lhs_pair, base_rhs * r.norm_sq, dict(params)),
        _check("tail_sum_grid_sq", lhs_grid_sq, base_rhs, dict(params)),
        _check("tail_sum_mixed", lhs_mixed, base_rhs * r.norm_sq, dict(params)),
    ]


# -- squared chains through the discs -----------------------------------------

def check_chain_sums(
    spec: PotentialSpec, bc: str, s: int, N: int, K: int, samples: int = 16
) -> list[BoundCheck]:
    """Audit the four chain sums at order s over discs N < |n| <= K.

    A chain of order s couples the disc at n to the lattice through s+1
    envelope factors over s+2 gap denominators; the four variants pin the
    chain's ends (both at n, left free, right free, both free with an
    interior index forced to n).
    Only s = 0 and s = 1 are supported: the closed forms beyond need the
    full operator-norm machinery, and the bound's shape changes anyway.
    For s = 0 there is no interior index, so only three sums exist.

    Every index is pinned to the support of r.  An index x with r(x + n)
    as its factor is a - n for a support point a; at s = 1 the free end of
    the chain r(k + j) r(j + n) is k = n + d with d a nonzero difference
    of support points, so r(k + j) = r(a + d) comes from one table.  The
    left- and right-free chains are term-by-term equal under renaming the
    free end, so one value serves both.  Each chain is maximized over the
    circle samples per free index before the sum over free indices.
    """
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


# -- seeded battery -------------------------------------------------------------

HARD_CHECKS = ("inverse_square_tail", "resonance_grid_sum", "row_shift_sum")
SOFT_RATIO_LIMIT = 100.0
BATTERY_CUTOFFS = (8,)


def run_battery(
    seed: int = 0,
    draws: int = 20,
    bcs=BC_TAGS,
    Ns=BATTERY_CUTOFFS,
    K: int = 256,
    operator_K: int = 64,
    samples: int = 16,
    max_mode: int = 8,
) -> list[BoundCheck]:
    """Run every potential-dependent family over seeded Gaussian draws.

    Each draw builds one random potential (independent complex Gaussian
    coefficients on all modes |m| <= max_mode, normalized to unit size) and
    audits all families for each boundary condition and each cutoff in Ns.
    """
    checks: list[BoundCheck] = []
    for i in range(draws):
        spec = random_potential([seed, i], max_mode=max_mode)
        for bc in bcs:
            r = r_sequence(spec, bc)
            probe = next(n for n in disc_centers(bc, 4 * max(Ns)) if n > max(Ns))
            for check in check_shift_sums(r, probe, window=K):
                checks.append(_tag(check, i))
            checks.append(_tag(check_circle_double_sum(spec, bc, probe, operator_K, samples), i))
            for N in Ns:
                for check in check_tail_sums(r, N, K):
                    checks.append(_tag(check, i))
                for s in (0, 1):
                    for check in check_chain_sums(spec, bc, s, N, K, samples):
                        checks.append(_tag(check, i))
    return checks


def _tag(check: BoundCheck, draw: int) -> BoundCheck:
    return BoundCheck(
        check.name,
        check.lhs,
        check.rhs_without_constant,
        check.ratio,
        {**check.parameters, "draw": draw},
    )


def worst_ratios(checks) -> dict[str, float]:
    """Fitted constant (max ratio) per check family."""
    out: dict[str, float] = {}
    for c in checks:
        out[c.name] = max(out.get(c.name, 0.0), c.ratio)
    return out


def violations(checks) -> list[BoundCheck]:
    """Checks that fail their gate: ratio > 1 for the constant-free
    families, ratio > SOFT_RATIO_LIMIT (or non-finite) for the rest."""
    bad = []
    for c in checks:
        limit = 1.0 if c.name in HARD_CHECKS else SOFT_RATIO_LIMIT
        if not math.isfinite(c.ratio) or c.ratio > limit:
            bad.append(c)
    return bad
