"""Riesz spectral projections by contour quadrature, and their deviations.

A projection onto the spectral subspace inside a circle is the contour
integral (1/2pi i) * oint (lambda - L)^{-1} d lambda.  On the trapezoid
rule with M equispaced nodes lambda_j = c + R e^{i theta_j} this becomes

    P  ~=  (R / M) * sum_j e^{i theta_j} (lambda_j - L)^{-1},

which for each eigenvalue mu of L is a scalar filter: exactly
1/(1 - d^M) with d = (mu - c)/R when mu is inside the circle, and
-1/(d^M - 1) when outside.  Both tails die geometrically in M, which is
why node-doubling checks are a meaningful convergence diagnostic.

Two evaluation routes are kept; both apply the same filter rule and gates.
The spectral route diagonalizes L once and applies the identical quadrature
sum to each eigenvalue (legitimate by linearity, and cheap enough to make
large node counts free).  Only the few eigenvalues inside or near the
contour have a filter value above roundoff, so the spectral route keeps
those r columns and returns P as the rank-r product
V[:, S] diag(f_S) V^{-1}[S, :], at O(dim^2 r) cost per contour.  When the
eigenvector basis is ill-conditioned (defective truncations), the Schur
route reorders one complex Schur form L = Z T Z^H so that S leads, solves
one Sylvester equation for the coupling X, and filters the triangular
r x r block, again in O(dim^2 r) per contour (Golub & Van Loan 7.6; Bai &
Demmel 1993).  The dense LU quadrature, node by node, survives only in the
tests as the oracle for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .operator import (
    OperatorMatrix,
    build_free,
    disc_centers,
    eigen,
    eigenbasis_condition,
    eigenbasis_inverse,
)
from .potential import validate_bc
from .resolvent import CONDITION_LIMIT

PROXIMITY_TOL = 1e-6
QUALITY_TOL = 1e-6
SPECTRAL_COND_LIMIT = 1e8
# eigenvalues whose quadrature filter value is at or below this floor are
# left out of the spectral route's factors.  Far from the contour the
# computed filter is pure roundoff (about 1e-17..5e-16 where the exact value
# is below 1e-30), so dropping those terms leaves P as accurate as before.
FILTER_FLOOR = 1e-15


class ContourProximityError(Exception):
    """An eigenvalue sits (numerically) on the requested contour."""


class ProjectionQualityError(Exception):
    """Computed projection failed its idempotency or rank gate."""


@dataclass(frozen=True)
class ContourSpec:
    """Circle c + R e^{i theta} discretized at `nodes` equispaced angles."""

    center: complex
    radius: float
    nodes: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("contour radius must be positive and finite")
        if self.nodes < 8 or self.nodes % 2 != 0:
            raise ValueError("contour nodes must be an even integer >= 8")

    def points(self) -> np.ndarray:
        theta = 2 * np.pi * np.arange(self.nodes) / self.nodes
        return self.center + self.radius * np.exp(1j * theta)


@dataclass(frozen=True)
class ProjectionResult:
    matrix: np.ndarray
    rank: int
    idempotency_residual: float
    contour: ContourSpec | None
    route: str | None = None

    @property
    def hs_norm(self) -> float:
        return float(np.linalg.norm(self.matrix))


def _filter(contour: ContourSpec, mu: np.ndarray) -> np.ndarray:
    """Trapezoid filter (R/M) sum_j z_j / (lambda_j - mu) at each value of mu."""
    phases = np.exp(2j * np.pi * np.arange(contour.nodes) / contour.nodes)
    lams = contour.center + contour.radius * phases
    return (contour.radius / contour.nodes) * (phases[None, :] / (lams[None, :] - mu[:, None])).sum(axis=1)


def _quadrature_spectral(op: OperatorMatrix, contour: ContourSpec) -> tuple[np.ndarray, np.ndarray]:
    """Factors (left, right) with P = left @ right, of inner size r = |S|.

    S holds the eigenvalues whose filter value exceeds FILTER_FLOOR, chosen
    by magnitude rather than position so that coarse contours, whose filter
    leaks to far eigenvalues, keep everything that matters.
    """
    vals, vecs = eigen(op)
    filt = _filter(contour, vals)
    keep = np.flatnonzero(np.abs(filt) > FILTER_FLOOR)
    return vecs[:, keep] * filt[keep], eigenbasis_inverse(op)[keep, :]


def _schur_form(op: OperatorMatrix) -> tuple[np.ndarray, np.ndarray]:
    if "schur" not in op._aux_cache:
        op._aux_cache["schur"] = scipy.linalg.schur(op.entries, output="complex")
    return op._aux_cache["schur"]


def _quadrature_schur(op: OperatorMatrix, contour: ContourSpec) -> tuple[np.ndarray, np.ndarray]:
    """Factors (Z1 F, [I, -X] Z^H): S from diag(T) moved to the leading block
    T11, T11 X - X T22 = -T12, F the trapezoid filter of T11 itself.  Refuses
    when LAPACK fails or the projector norm sqrt(1 + ||X||_F^2) exceeds
    CONDITION_LIMIT.
    """
    T, Z = _schur_form(op)
    select = np.abs(_filter(contour, np.diagonal(T))) > FILTER_FLOOR
    T, Z, _, r, _, _, info = scipy.linalg.lapack.ztrsen(select, T, Z, job="N")
    X, scale = np.zeros((r, op.dim - r), dtype=complex), 1.0
    if info == 0 and 0 < r < op.dim:
        X, scale, info = scipy.linalg.lapack.ztrsyl(T[:r, :r], T[r:, r:], -T[:r, r:], isgn=-1)
    norm = math.hypot(1.0, float(np.linalg.norm(X)))
    if info != 0 or scale < 1.0 or not norm <= CONDITION_LIMIT:
        raise ProjectionQualityError(
            f"Schur route cannot certify the projection (LAPACK info {info}, Sylvester scale {scale}, "
            f"projector norm {norm:.3e} against {CONDITION_LIMIT:.0e})"
        )
    phases = np.exp(2j * np.pi * np.arange(contour.nodes) / contour.nodes)
    shifted = contour.points()[:, None, None] * np.eye(r) - T[:r, :r]
    filt = (contour.radius / contour.nodes) * np.einsum("j,jab->ab", phases, np.linalg.inv(shifted))
    return Z[:, :r] @ filt, Z[:, :r].conj().T - X @ Z[:, r:].conj().T


def riesz_projection(
    op: OperatorMatrix,
    contour: ContourSpec,
    quality_threshold: float | None = QUALITY_TOL,
) -> ProjectionResult:
    """Contour-quadrature spectral projection with proximity/quality gates.

    Refuses when an eigenvalue of the truncation lies within PROXIMITY_TOL
    of the contour.  With quality_threshold = None the idempotency and rank
    gates are skipped (used by node-convergence studies that build coarse
    projections on purpose).  Schur route above SPECTRAL_COND_LIMIT.
    """
    vals, _ = eigen(op)
    offsets = np.abs(np.abs(vals - contour.center) - contour.radius)
    worst = int(np.argmin(offsets))
    if offsets[worst] < PROXIMITY_TOL:
        raise ContourProximityError(
            f"eigenvalue {vals[worst]} lies within {PROXIMITY_TOL:.0e} of the contour "
            f"|z - {contour.center}| = {contour.radius}"
        )
    route = "spectral" if eigenbasis_condition(op) <= SPECTRAL_COND_LIMIT else "schur"
    left, right = (_quadrature_spectral if route == "spectral" else _quadrature_schur)(op, contour)
    matrix = left @ right
    # P^2 = left (right left) right, with the r x r product in the middle
    residual = float(np.linalg.norm(left @ ((right @ left) @ right) - matrix))

    trace = complex(np.trace(matrix))
    rank = int(round(trace.real))
    if quality_threshold is not None:
        if abs(trace - rank) > quality_threshold:
            raise ProjectionQualityError(
                f"projection trace {trace} is not close to an integer rank; increase contour nodes"
            )
        if residual > quality_threshold:
            raise ProjectionQualityError(
                f"idempotency residual {residual:.3e} exceeds {quality_threshold:.1e}; increase contour nodes"
            )
    return ProjectionResult(matrix, rank, residual, contour, route)


def free_projection(bc: str, n: int, K: int) -> ProjectionResult:
    """Exact spectral projection of the free operator onto the disc at n."""
    validate_bc(bc)
    free = build_free(bc, K)
    if n not in free.basis.lattice:
        raise ValueError(f"lattice point {n} not present in the {bc} truncation at K = {K}")
    diag = np.array([1.0 + 0j if m == n else 0j for m, _ in free.basis.indices])
    rank = int(diag.real.sum())
    return ProjectionResult(np.diag(diag), rank, 0.0, None)


def default_global_nodes(radius: float) -> int:
    """Node count scaled to the circle: trapezoid tails decay ~ exp(-M/2R)."""
    need = int(math.ceil(40 * radius))
    return max(64, need + (need % 2))


def global_projection(op: OperatorMatrix, N: int, nodes: int | None = None) -> ProjectionResult:
    """Projection onto everything inside the circle |z| = N + 1/2.

    Complements the tail discs |n| > N: together they resolve the identity.
    """
    if N < 0:
        raise ValueError("N must be a nonnegative integer")
    radius = N + 0.5
    count = default_global_nodes(radius) if nodes is None else max(nodes, default_global_nodes(radius))
    return riesz_projection(op, ContourSpec(0.0, radius, count))


def deviation(p: ProjectionResult, p0: ProjectionResult) -> float:
    """HS distance between two projections."""
    return float(np.linalg.norm(p.matrix - p0.matrix))


@dataclass(frozen=True)
class DeviationReport:
    """Per-disc deviations ||P_n - P_n^0||_HS beyond a cutoff N.

    per_n is keyed by disc center; cumulative holds the running partial sums
    of the squared deviations in (|n|, n) order, so the last entry is the
    full tail sum that the quadratic-closeness criterion bounds.
    """

    per_n: dict[int, float]
    cumulative: tuple[float, ...]
    N_used: int
    K_used: int
    ranks: dict[int, int]

    @property
    def ordered_discs(self) -> tuple[int, ...]:
        return tuple(sorted(self.per_n, key=lambda n: (abs(n), n)))

    @property
    def tail_sum(self) -> float:
        return self.cumulative[-1] if self.cumulative else 0.0


def deviation_report(
    op: OperatorMatrix,
    N: int,
    threshold: int,
    radius: float = 0.5,
    nodes: int = 64,
    max_disc: float | None = None,
) -> DeviationReport:
    """Deviations for every trusted disc N < |n| <= K/2 (optionally capped).

    `threshold` is the verified threshold of the operator's potential
    (find_threshold_n).  N must be at or above it, so every contour the
    report integrates over satisfies the smallness test.
    """
    if N < threshold:
        raise ValueError(f"N = {N} is below the verified threshold {threshold} for this potential")
    bc, K = op.basis.bc, op.basis.K
    limit = K / 2 if max_disc is None else min(max_disc, K / 2)
    discs = sorted((n for n in disc_centers(bc, limit) if abs(n) > N), key=lambda n: (abs(n), n))
    per_n: dict[int, float] = {}
    ranks: dict[int, int] = {}
    cumulative: list[float] = []
    running = 0.0
    for n in discs:
        p = riesz_projection(op, ContourSpec(n, radius, nodes))
        p0 = free_projection(bc, n, K)
        dev = deviation(p, p0)
        per_n[n] = dev
        ranks[n] = p.rank
        running += dev * dev
        cumulative.append(running)
    return DeviationReport(per_n, tuple(cumulative), N, K, ranks)


def localization_counts(op: OperatorMatrix, radius: float = 0.5) -> dict[int, int]:
    """Eigenvalues of the truncation strictly inside each trusted disc."""
    vals, _ = eigen(op)
    return {
        n: int(np.count_nonzero(np.abs(vals - n) < radius))
        for n in disc_centers(op.basis.bc, op.basis.trusted_limit)
    }
