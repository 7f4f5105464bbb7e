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
[-d T, d T], evaluated as a direct sum (no FFT).  Since x is a multiple
of d, y = u - x lies in u's residue class mod d, so each class of u is one
convolution on the compressed grid (every d-th point), which sums the same
nonzero terms as the full grid with 1/d of the work.  One table per summand
shape covers every (n, j); offsets beyond its reach 2 d T contribute
nothing.

The chain sums and the circle double sum are maxima over a disc's circle
|l - n| = 1/2.  Every gap they use is |l - x| = |z - u| for a real u and
z = l - n, and each maximand is a positive sum of products of gap powers,
so it peaks at the circle's real points z = +-1/2 (resolvent.CIRCLE_PEAKS
gives the reason); only those two are evaluated, in real arithmetic.  The
rows record samples = RECORDED_SAMPLES: the 16-point grid's maximum is the
one read there bit for bit, wherever the maximand is not flat on the circle
(one whose only gap is u = 0 differs between grid points by rounding alone).

On the circle, an index x = a - n (a on the support of r) has |l - x| =
|z - u| with u = a - 2n, and an s = 1 free end k = n + d has |l - k| =
|z - d| on every disc.  So one circle-offset table 1/|z - u| (point x u)
serves every disc by gather: the memo holds it, the (disc x support)
indices of u into its u axis and the column of u = 0, and nothing of size
point x disc x support.  One (point x d) table holds the free-end gaps.
At s = 1 each point's gaps are gathered on (disc x support) in the loop
over the two points, and its closed chains (per disc) and free chains
(disc x d) are folded into running maxima there, so no per-draw array
outgrows one point's block.  The anchor's (k, m) term sees n only through
u_k, as u_m - u_k = a_m - a_k: it reads the pair table
H[t, u] = max_z |z - u|^-2 |z - u - t d|^-2 at u = min(u_k, u_m),
t d = |a_m - a_k|.  Its sum over discs is a matvec per support point
against the number of discs at each offset (a bincount), because u_k and
u_0 differ by a_k - a_0 on every disc.  End factors (the s = 0 free
chain's, both of the anchor's) drop u = 0, the index x = n; the s = 1
closed and free chains keep their interior index j = n.  The end factors
1/|z - u|^2 are formed only while the s = 0 maxima and the pair table are
built, and are not kept.

None of those tables depends on the potential: the convolution tables see
(d, T, a, b), the tail and chain tables see the lattice (bc, N, K) and
the support of r, which every draw of the battery shares.  So
run_battery opens one _Tables memo for its draws and closes it on return:
each table is built on first use, and each draw only reads r(a), r(a)^2
and the links r(a) r(a + d) and forms the products.  A check_* call outside
a battery builds the same tables for itself alone, so a battery row and a
lone call run the same arithmetic.  The envelope r itself is built once per
(potential, bc) and cached on the PotentialSpec, with its support arrays
(j, r(j), r(j)^2); every check of a draw, and rho_N, reads that one r.

The resonance sums come in closed form from the partial fractions

  1/(n^2-p^2)^2 = [1/(n-p)^2 + 1/(n+p)^2 + (1/(n-p) + 1/(n+p))/n] / (4n^2),

so the sum over 1 <= p <= P, p != n reads four prefix sums of 1/k and 1/k^2
per n; p = n drops out of both the (n-p) and the (n+p) family.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .operator import _lattice_range, disc_centers
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
from .resolvent import CIRCLE_PEAKS, RECORDED_SAMPLES, _circle_double_sums


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


class _Tables:
    """Potential-free tables, each built on its first use.

    tables(build, *key) returns build(tables, *key), built once per key;
    builders take the memo first so that one table can read another.  The
    arrays are shared by every later call, so they are made read-only.
    """

    def __init__(self) -> None:
        self._built: dict = {}

    def __call__(self, build, *key):
        if (build, *key) not in self._built:
            built = build(self, *key)
            for table in built if isinstance(built, tuple) else (built,):
                if isinstance(table, np.ndarray):
                    table.flags.writeable = False
            self._built[(build, *key)] = built
        return self._built[(build, *key)]


# the running battery's memo; unset outside run_battery
_BATTERY_TABLES: ContextVar[_Tables | None] = ContextVar("battery_tables", default=None)


def _tables() -> _Tables:
    """The running battery's tables, or fresh ones for a lone check call."""
    tables = _BATTERY_TABLES.get()
    return _Tables() if tables is None else tables


# -- elementary numeric sums ------------------------------------------------

def check_elementary(n_max: int = 10_000) -> list[BoundCheck]:
    """Audit the two bare lattice sums on 1 <= n, N <= n_max.

    Left sides are upper estimates: explicit partial sums plus an analytic
    bound on the discarded tail, so a pass is a pass for the infinite sums.
    Each check reports its worst case over the whole range.  The resonance
    partial sums over 0 <= p <= P = max(2n, 100) come from the partial-
    fraction identity of the module docstring, O(n_max) in all.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    top = 20 * n_max
    # run[i] = sum of 1/n^2 over top - i <= n <= top, summed from n = top down
    run = np.cumsum(1.0 / np.arange(top, 0, -1, dtype=float) ** 2)
    Ns = np.arange(1, n_max + 1)
    lhs_tail = run[top - 1 - Ns] + 1.0 / top
    ratios = lhs_tail * Ns
    worst = int(np.argmax(ratios))
    first = _check(
        "inverse_square_tail",
        lhs_tail[worst],
        1.0 / Ns[worst],
        {"n_max": n_max, "worst_N": int(Ns[worst]), "truncation": top},
    )

    # p = 0 once, +-p for 1 <= p <= P: n - p runs over 1..n-1 and -(1..P-n),
    # n + p over n+1..n+P less the resonance 2n
    P = np.maximum(2 * Ns, 100)
    k = np.arange(1, (Ns + P).max() + 1, dtype=float)
    h1 = np.concatenate([[0.0], np.cumsum(1.0 / k)])
    h2 = np.concatenate([[0.0], np.cumsum(1.0 / k**2)])
    n = Ns.astype(float)
    squares = h2[Ns - 1] + h2[P - Ns] + h2[Ns + P] - h2[Ns] - 1.0 / (2.0 * n) ** 2
    linear = h1[Ns - 1] - h1[P - Ns] + h1[Ns + P] - h1[Ns] - 1.0 / (2.0 * n)
    # beyond P >= 2n: p^2 - n^2 >= (3/4) p^2, two signed tails
    tail = 2.0 * (16.0 / 9.0) / (3.0 * P**3)
    totals = 1.0 / n**4 + (squares + linear / n) / (2.0 * n**2) + tail
    worst = int(np.argmax(totals / (4.0 / Ns**2)))
    second = _check(
        "resonance_grid_sum",
        totals[worst],
        4.0 / Ns[worst] ** 2,
        {"n_max": n_max, "worst_n": int(Ns[worst])},
    )
    return [first, second]


# -- single-disc shift sums ---------------------------------------------------

def _offset_table(tables: _Tables, d: int, T: int, a: int, b: int) -> np.ndarray:
    """g(u) = sum_t (d|t|)^-a |u - dt|^-b over 0 < |t| <= T, 0 < |u - dt| <= dT,
    for -2dT <= u <= 2dT: one convolution per residue class of u mod d (see
    the module docstring).  A window past numpy's largest array is a
    MemoryError, as one that does not fit in memory is."""
    try:
        x = np.arange(-d * T, d * T + 1)
    except ValueError:
        raise MemoryError(
            f"a window of {T} lattice steps needs {2 * d * T + 1} offsets, past numpy's largest array"
        ) from None
    recip = np.zeros(x.size)
    recip[x != 0] = 1.0 / np.abs(x[x != 0])
    # x = dt runs over recip[::d]; u = dt + y with y = u - dt in u's class
    table = np.empty(2 * x.size - 1)
    for c in range(d):
        table[c::d] = np.convolve(recip[::d] ** a, recip[c::d] ** b)
    return table


def _offset_kernel(table: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The table's g at offsets u; offsets beyond its reach 2dT read as 0."""
    reach = table.size // 2
    inside = np.abs(u) <= reach
    return np.where(inside, table[np.where(inside, u + reach, 0)], 0.0)


def _row_shift_sum(r: RSequence, n: int) -> float:
    """Exact sum_{k != n} r(n+k)^2 / |n-k| along the support of r."""
    js, _, ws = r.support_arrays
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

    js, _, ws = r.support_arrays
    lhs_grid = float(ws @ _offset_kernel(_tables()(_offset_table, d, window, 1, 1), js - 2 * n))
    grid = _check(
        "grid_shift_sum",
        lhs_grid,
        r.norm_sq / math.sqrt(abs(n)) + tail_sq,
        {"n": n, "step": d, "window": window},
    )
    return row, grid


# -- circle check against the decay functional --------------------------------

def check_circle_double_sum(spec: PotentialSpec, bc: str, n: int, K: int) -> BoundCheck:
    """Worst dominated HS double sum on the circle |l - n| = 1/2, read at
    its real points n +- 1/2."""
    validate_bc(bc)
    if n == 0:
        raise ValueError("n must be nonzero")
    r = r_sequence(spec, bc)
    weights = {j: v * v for j, v in r.values.items()}
    worst = float(_circle_double_sums(weights, bc, K, np.array([n], dtype=float)).max())
    rhs = r.norm_sq / math.sqrt(abs(n)) + tail_norm(r, abs(n)) ** 2
    return _check(
        "circle_double_sum", worst, rhs, {"bc": bc, "n": n, "K": K, "samples": RECORDED_SAMPLES}
    )


# -- summed-over-n tail sums ---------------------------------------------------

def _tail_tables(tables: _Tables, d: int, N: int, K: int, support: tuple) -> tuple:
    """(1/|2n - j|, g_22(j - 2n), g_12(j - 2n)) on (n, j) axes,
    N < |n| <= K and j on the support; 1/0 reads as 0."""
    ns = np.arange(-K, K + 1)
    ns = ns[np.abs(ns) > N]
    js = np.array(support, dtype=int)
    # exact inner sums: |n - k| = |2n - j| along the support anti-diagonals
    gaps = np.abs(2 * ns[:, None] - js[None, :]).astype(float)
    live = gaps > 0
    inv = np.where(live, 1.0 / np.where(live, gaps, 1.0), 0.0)
    # windowed grids: the inner sums depend on (n, j) only through j - 2n
    offsets = js[None, :] - 2 * ns[:, None]
    grid_sq = _offset_kernel(tables(_offset_table, d, 2 * K, 2, 2), offsets)
    mixed = _offset_kernel(tables(_offset_table, d, 2 * K, 1, 2), offsets)
    return inv, grid_sq, mixed


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
    ws = r.support_arrays[2]
    base_rhs = r.norm_sq / N + tail_norm(r, N) ** 2
    params = {"N": N, "K": K, "step": d, "window_steps": 2 * K}

    inv, grid_sq, mixed = _tables()(_tail_tables, d, N, K, r.support)
    lhs_sq = float((inv**2 @ ws).sum())
    row_sums = inv @ ws
    lhs_pair = float((row_sums**2).sum())
    lhs_grid_sq = float((grid_sq @ ws).sum())
    lhs_mixed = float(row_sums @ (mixed @ ws))

    return [
        _check("tail_sum_sq", lhs_sq, base_rhs, dict(params)),
        _check("tail_sum_pair", lhs_pair, base_rhs * r.norm_sq, dict(params)),
        _check("tail_sum_grid_sq", lhs_grid_sq, base_rhs, dict(params)),
        _check("tail_sum_mixed", lhs_mixed, base_rhs * r.norm_sq, dict(params)),
    ]


# -- squared chains through the discs -----------------------------------------

def _circle_offsets(tables: _Tables, bc: str, N: int, K: int, support: tuple) -> tuple:
    """(at, recip, origin) for the discs N < |n| <= K.

    recip[:, at] = 1/|z - u| for u = a - 2n on axes (disc, support), with z
    on the axis of CIRCLE_PEAKS; recip's column origin holds u = 0, which
    the end factors drop.  A window with no disc past N is a ValueError.
    """
    supp = np.array(support, dtype=int)
    lattice = _lattice_range(bc, K)
    centers = np.arange(lattice.start, lattice.stop, lattice.step)
    centers = centers[(np.abs(centers) > N) & (np.abs(centers) <= K)]
    if centers.size == 0:
        raise ValueError(f"the window K = {K} holds no disc of the {bc} lattice past N = {N}")
    u = supp - 2 * centers[:, None]
    lo = u.min(initial=0)
    recip = 1.0 / np.abs(CIRCLE_PEAKS[:, None] - np.arange(lo, u.max(initial=0) + 1))  # (point, u)
    return u - lo, recip, int(-lo)


def _chain_tables(tables: _Tables, bc: str, s: int, N: int, K: int, support: tuple, step: int) -> tuple:
    """What the order-s chain sums read besides r and the circle offsets.

    s = 0: the hits a = 2n and the circle maxima of the end factors on
    (disc, support).  s = 1: the shift indicator whose product with r(a)
    gives r(a + d), the free-end factors 2/|z - d| on (point, d) and the
    anchor's pair table summed over discs, on (support, support).  The
    end factors 1/|z - u|^2 with u = 0 dropped are formed here and not kept.
    """
    at, recip, origin = tables(_circle_offsets, bc, N, K, support)
    if s == 0:
        # squaring is monotone on the nonnegative recip, so it commutes with the maxima
        end_maxima = recip.max(axis=0) ** 2
        end_maxima[origin] = 0.0
        return at == origin, end_maxima[at]
    supp = np.array(support, dtype=int)
    diffs = np.setdiff1d(supp[:, None] - supp, [0])
    shift = supp[:, None] + diffs[:, None, None] == supp
    free_ends = 2.0 / np.abs(CIRCLE_PEAKS[:, None] - diffs)
    ends_sq = recip**2
    ends_sq[:, origin] = 0.0
    # pair[t, u] = max over the two points of ends_sq(u) ends_sq(u + t d), zero past the table
    width, span = supp.max(initial=0) - supp.min(initial=0), recip.shape[1]
    pair = np.zeros((width // step + 1, span))
    for row, t in zip(pair, range(0, width + 1, step)):
        np.max(ends_sq[:, : span - t] * ends_sq[:, t:], axis=0, out=row[: span - t])
    # chain (k, m) reads pair[|a_k - a_m| / d, min(a_k, a_m) - 2n], summed over
    # discs; at[n, k] = at[n, 0] + a_k - a_0, so that sum is a matvec against
    # the number of discs at each offset at[n, 0]
    discs = np.bincount(at[:, :1].ravel()).astype(float)
    per_point = np.empty((pair.shape[0], supp.size))
    for k, offset in enumerate(supp - supp[:1]):
        per_point[:, k] = pair[:, offset : offset + discs.size] @ discs
    lower = np.minimum.outer(np.arange(supp.size), np.arange(supp.size))
    return shift, free_ends, per_point[np.abs(supp[:, None] - supp) // step, lower]


def check_chain_sums(spec: PotentialSpec, bc: str, s: int, N: int, K: int) -> list[BoundCheck]:
    """Audit the four chain sums at order s over discs N < |n| <= K.

    A chain of order s couples the disc at n to the lattice through s+1
    envelope factors over s+2 gap denominators; the four variants pin the
    chain's ends (both at n, left free, right free, both free with an
    interior index forced to n).
    Only s = 0 and s = 1 are supported: the closed forms beyond need the
    full operator-norm machinery, and the bound's shape changes anyway.
    For s = 0 there is no interior index, so only three sums exist.

    Gaps come from the circle-offset tables of the module docstring, and r
    and rho_N from the envelope cached on spec.  The left- and right-free
    chains are term-by-term equal under renaming the free end, so one value
    serves both.  Each chain is maximized over the circle, read at its
    real points (module docstring), per free index before the sum over free
    indices; at s = 1 the free chains are streamed one point's (disc x d)
    block at a time into those maxima, and the anchor reads its disc sums
    from the bincount pair table.  A window K with no disc past N is a
    ValueError.
    """
    validate_bc(bc)
    if s not in (0, 1):
        raise ValueError("chain sums are implemented for s in {0, 1} only")
    if N < 1:
        raise ValueError("N must be a positive integer")
    r = r_sequence(spec, bc)
    _, ra, wa = r.support_arrays
    rho_sq = rho(spec, bc, N) ** 2  # read from the same cached r

    # every chain carries 1/|l - n|^2 = 4
    tables = _tables()
    built = tables(_chain_tables, bc, s, N, K, r.support, r.step)
    anchor = 0.0
    if s == 0:
        hits, end_maxima = built
        closed = 4.0 * float((hits @ wa).sum())
        free = 4.0 * float((end_maxima @ wa).sum())
    else:
        shift, free_ends, anchor_pairs = built
        at, recip, _ = tables(_circle_offsets, bc, N, K, r.support)
        # 2 r(a) r(a + d) / |z - d| on (point, support, d)
        links = (ra * (shift @ ra)).T * free_ends[:, None, :]
        # one point's gaps 1/|l - j|, j = a - n, on (disc, support) at a time,
        # folded into the circle maxima of the closed and the free chains
        closed_max = np.zeros(at.shape[0])
        free_max = np.zeros((at.shape[0], links.shape[2]))
        block = np.empty_like(free_max)
        for point_recip, point_links in zip(recip, links):
            gaps = point_recip[at]
            np.maximum(closed_max, gaps @ wa, out=closed_max)
            np.maximum(free_max, np.matmul(gaps, point_links, out=block), out=free_max)
        # every factor is nonnegative, so squaring commutes with the circle maxima
        closed = float(np.square(4.0 * closed_max).sum())
        free = float(np.square(free_max, out=free_max).sum())
        anchor = 4.0 * float(wa @ anchor_pairs @ wa)

    params = {"bc": bc, "s": s, "N": N, "K": K, "samples": RECORDED_SAMPLES}
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
    Ns=BATTERY_CUTOFFS,
    K: int = 256,
    operator_K: int = 64,
) -> list[BoundCheck]:
    """Run every potential-dependent family over seeded Gaussian draws.

    Each draw builds one random potential (independent complex Gaussian
    coefficients on all modes |m| <= 8, normalized to unit size) and
    audits all families for each boundary condition and each cutoff in Ns.
    The potential-free tables are built once for all draws and dropped on
    return (see the module docstring).
    """
    checks: list[BoundCheck] = []
    token = _BATTERY_TABLES.set(_Tables())
    try:
        for i in range(draws):
            spec = random_potential([seed, i])
            for bc in BC_TAGS:
                r = r_sequence(spec, bc)
                probe = next(n for n in disc_centers(bc, 4 * max(Ns)) if n > max(Ns))
                for check in check_shift_sums(r, probe, window=K):
                    checks.append(_tag(check, i))
                checks.append(_tag(check_circle_double_sum(spec, bc, probe, operator_K), i))
                for N in Ns:
                    for check in check_tail_sums(r, N, K):
                        checks.append(_tag(check, i))
                    for s in (0, 1):
                        for check in check_chain_sums(spec, bc, s, N, K):
                            checks.append(_tag(check, i))
    finally:
        _BATTERY_TABLES.reset(token)
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
