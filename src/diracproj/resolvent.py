"""The Hilbert-Schmidt smallness test, and the shifted solve (lambda - L)^{-1}.

The smallness test never touches a matrix: it evaluates the lattice
double sum

    ||K V K||_HS^2 = sum_{i,k} w(i + k) / (|lambda - i| |lambda - k|)

by grouping terms along anti-diagonals j = i + k, where w(j) collects the
squared potential coefficients that can connect modes i and k.  K here is
the diagonal square root of the free resolvent, K^2 = (lambda - L0)^{-1};
only the moduli |lambda - i|^{-1/2} of its entries enter the sum, so no
branch of the square root is ever chosen.

The smallness test drives everything else: once the circle of radius 1/2
around a lattice point n has max ||K V K||_HS <= 1/2, the resolvent exists
on that circle and the Riesz projection for the disc is trustworthy.
circle_norm_profile evaluates the double sum for every disc and circle
sample of the trusted window, broadcast over blocks of discs, and
threshold_from_profile reads off the smallest cutoff N beyond which every
disc passes.  The same kernel, fed the envelope weights r(j)^2, gives the
bound audit's dominated double sum.

ShiftedSolve factors the shifted truncation once, behind a conditioning
gate, and solves against it.  No CLI path calls it: the tests' dense LU
projection oracle does, and it stays in this module because the benchmark
tracer patches resolvent.ShiftedSolve by name.  Its gate, CONDITION_LIMIT,
also caps the projector norm the Schur projection route accepts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .operator import OperatorMatrix, disc_centers, eigen, lattice_points
from .potential import DIRICHLET, PotentialSpec, dirichlet_w

CONDITION_LIMIT = 1e12
# values per (disc, sample, lattice) block of the smallness scan: 1 MB of float64
SCAN_BLOCK_FLOATS = 2**17


class IllConditionedError(Exception):
    """Shifted system too close to singular to solve reliably."""


class ThresholdNotFoundError(Exception):
    """No cutoff within the trusted window satisfies the smallness test."""


@dataclass
class ShiftedSolve:
    """LU factorization of (lambda - L) with a cheap conditioning gate.

    The gate runs one inverse-power step from a fixed start vector; the
    resulting estimate of ||A||_1 * ||A^{-1}|| must stay below
    CONDITION_LIMIT or the solve refuses, naming the nearest eigenvalue.
    """

    op: OperatorMatrix
    lam: complex
    _lu: tuple = field(repr=False, default=None)
    condition_estimate: float = 0.0

    def __post_init__(self) -> None:
        self.lam = complex(self.lam)
        shifted = self.lam * np.eye(self.op.dim) - self.op.entries
        try:
            self._lu = scipy.linalg.lu_factor(shifted)
            probe = np.full(self.op.dim, 1.0 / np.sqrt(self.op.dim), dtype=complex)
            grown = scipy.linalg.lu_solve(self._lu, probe)
            inv_norm = float(np.linalg.norm(grown))
            self.condition_estimate = inv_norm * float(np.abs(shifted).sum(axis=0).max())
        except (scipy.linalg.LinAlgError, ValueError):
            self.condition_estimate = np.inf
        if not np.isfinite(self.condition_estimate) or self.condition_estimate > CONDITION_LIMIT:
            vals, _ = eigen(self.op)
            nearest = vals[np.argmin(np.abs(vals - self.lam))]
            raise IllConditionedError(
                f"(lambda - L) at lambda = {self.lam} has condition estimate "
                f"{self.condition_estimate:.3e} > {CONDITION_LIMIT:.0e}; "
                f"nearest eigenvalue is {nearest}"
            )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=complex)
        return scipy.linalg.lu_solve(self._lu, rhs)


def _antidiagonal_weights(spec: PotentialSpec, bc: str) -> dict[int, float]:
    """w(j) = squared coefficient mass coupling mode pairs with i + k = j."""
    modes = spec.coupled_modes(bc)
    if bc == DIRICHLET:
        return {j: abs(dirichlet_w(spec, j)) ** 2 for j in modes}
    return {j: abs(spec.q(j)) ** 2 + abs(spec.p(-j)) ** 2 for j in modes}


def circle_samples(center: complex, radius: float, count: int) -> np.ndarray:
    theta = 2 * np.pi * np.arange(count) / count
    return center + radius * np.exp(1j * theta)


def _circle_double_sums(
    weights: dict[int, float], bc: str, K: int, centers: np.ndarray, samples: int
) -> np.ndarray:
    """sum_j w(j) sum_i 1 / (|l - i| |l - (j - i)|) over the size-K lattice.

    Evaluated at every (disc, sample) point l of the radius-1/2 circles
    around `centers`, in blocks of discs whose (disc, sample, lattice)
    temporaries hold about SCAN_BLOCK_FLOATS values (1 MB of float64); each
    disc's sums do not depend on the block it lands in.  The lattice is
    symmetric with step s, so the partner j - lat[i] of lattice point i sits
    at index (L - 1 - i) + j/s, and each anti-diagonal j reduces to one
    shifted product of the reciprocal gaps with their reversal.
    """
    lat = np.array(lattice_points(bc, K), dtype=float)
    step = 1 if bc == DIRICHLET else 2
    L = lat.size
    total = np.zeros((len(centers), samples))
    block = max(1, SCAN_BLOCK_FLOATS // (samples * L))
    for start in range(0, len(centers), block):
        lams = circle_samples(centers[start : start + block, None], 0.5, samples)
        inv = 1.0 / np.abs(lams[:, :, None] - lat)
        rev = inv[:, :, ::-1]
        part = total[start : start + block]
        for j, w in weights.items():
            t = j // step
            if w == 0.0 or abs(t) >= L:
                continue
            if t >= 0:
                part += w * np.einsum("dsi,dsi->ds", inv[:, :, t:], rev[:, :, : L - t])
            else:
                part += w * np.einsum("dsi,dsi->ds", inv[:, :, : L + t], rev[:, :, -t:])
    return total


def circle_norm_profile(
    spec: PotentialSpec, bc: str, K: int, samples_per_circle: int = 16
) -> dict[int, float]:
    """Worst sampled ||K V K||_HS on the radius-1/2 circle of each disc.

    Covers every nonzero lattice point in the trusted window |n| <= K/2;
    the squared norms are _circle_double_sums with the anti-diagonal
    weights w.
    """
    if samples_per_circle < 4:
        raise ValueError("samples_per_circle must be at least 4")
    centers = np.array([n for n in disc_centers(bc, K / 2) if n != 0], dtype=float)
    total = _circle_double_sums(_antidiagonal_weights(spec, bc), bc, K, centers, samples_per_circle)
    worst = np.sqrt(total.max(axis=1))
    return {int(n): float(v) for n, v in zip(centers, worst)}


def threshold_from_profile(profile: dict[int, float], K: int) -> int:
    """Smallest cutoff N with every disc |n| > N passing max ||K V K||_HS <= 1/2.

    The zero potential returns 1.  Raises ThresholdNotFoundError when even
    the outermost trusted disc fails the smallness test, i.e. no cutoff
    inside the truncation leaves a nonempty verified window.
    """
    failing = [abs(n) for n, worst in profile.items() if worst > 0.5]
    if not failing:
        return 1
    N = max(failing)
    window = [n for n in profile if abs(n) > N]
    if not window:
        raise ThresholdNotFoundError(
            f"no threshold within truncation: disc at |n| = {N} still has "
            f"max sampled ||K V K||_HS > 1/2 at the edge of the trusted window (K = {K})"
        )
    return N


def find_threshold_n(spec: PotentialSpec, bc: str, K: int, samples_per_circle: int = 16) -> int:
    """Smallest cutoff N <= K/2 with max ||K V K||_HS <= 1/2 past it.

    One smallness scan (circle_norm_profile) read by threshold_from_profile.
    """
    return threshold_from_profile(circle_norm_profile(spec, bc, K, samples_per_circle), K)
