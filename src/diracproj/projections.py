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
those r columns and returns the factors V[:, S] diag(f_S) and V^{-1}[S, :]
of P, at O(dim r) cost per contour beyond the filter itself.  When the
eigenvector basis is ill-conditioned (defective or nearly so), the Schur
route reorders one complex Schur form L = Z T Z^H so that S leads, solves
one Sylvester equation for the coupling X, and filters the triangular
r x r block, in O(dim^2 r) per contour (Golub & Van Loan 7.6; Bai &
Demmel 1993).  The dense LU quadrature, node by node, survives only in the
tests as the oracle for both.

Both routes return P as factors left (dim x r) and right (r x dim), and P
stays factored from there on: P f is left (right f), the trace is that of
the r x r product right left, and the idempotency residual
||P^2 - P||_F = ||left (right left - I) right||_F is the norm of an r x r
matrix after thin QRs of left and right^H.  No dim x dim array is formed
per contour.  The free projection P_n^0 is the coordinate projection onto
the basis rows D of the lattice point n.  Its deviation is split by rows:
the r rows in D are differenced explicitly (left[D] right minus the
identity there), and the other rows, where P^0 vanishes, have norm
||left[~D] R^H||_F with right^H = Q R, exact because Q^H has orthonormal
rows.  Expanding ||P||^2 - 2 Re tr(P^0 P) + ||P^0||^2 instead would cancel
to about 1e-16 / dev^2 relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .operator import (
    OperatorMatrix,
    disc_centers,
    eigen,
    eigenbasis_condition,
    eigenbasis_inverse,
    lattice_points,
)
from .potential import DIRICHLET
from .resolvent import CONDITION_LIMIT

PROXIMITY_TOL = 1e-6
QUALITY_TOL = 1e-6
# the spectral route's error grows like 7e-17 times the eigenbasis condition
# (against the LU oracle); above this limit the Schur route, whose error does
# not grow with it, takes over
SPECTRAL_COND_LIMIT = 1e5
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
    """A rank-r projection P = left @ right, kept as its dim x r and r x dim factors."""

    left: np.ndarray
    right: np.ndarray
    rank: int
    idempotency_residual: float
    contour: ContourSpec | None
    route: str | None = None

    @property
    def matrix(self) -> np.ndarray:
        """The dense P, formed on demand; the library itself never asks for it."""
        return self.left @ self.right

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.left @ (self.right @ x)

    @property
    def hs_norm(self) -> float:
        return _factored_norm(self.left, self.right)


def _factored_norm(left: np.ndarray, right: np.ndarray) -> float:
    """||left @ right||_F as ||left R^H||_F, where right^H = Q R with orthonormal Q."""
    return float(np.linalg.norm(left @ np.linalg.qr(right.conj().T, mode="r").conj().T))


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
    gram = right @ left
    # P^2 - P = left (gram - I) right = Q_l [R_l (gram - I)] right with left = Q_l R_l
    residual = _factored_norm(np.linalg.qr(left, mode="r") @ (gram - np.eye(len(gram))), right)

    trace = complex(np.trace(gram))
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
    return ProjectionResult(left, right, rank, residual, contour, route)


def free_projection(bc: str, n: int, K: int) -> ProjectionResult:
    """Exact spectral projection of the free operator onto the disc at n.

    The free operator is diagonal, so this is the coordinate projection onto
    the basis rows of n: one per channel, found by index arithmetic on the
    ascending, channel-interleaved basis ordering.
    """
    points = lattice_points(bc, K)
    channels = 1 if bc == DIRICHLET else 2  # also the lattice step
    slot, offset = divmod(n - points[0], channels)
    if offset or not 0 <= slot < len(points):
        raise ValueError(f"lattice point {n} not present in the {bc} truncation at K = {K}")
    left = np.zeros((channels * len(points), channels), dtype=complex)
    left[channels * slot + np.arange(channels), np.arange(channels)] = 1.0
    return ProjectionResult(left, left.T, channels, 0.0, None)


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
    """HS distance ||P - P0||_F between two projections, from their factors.

    The rows D where p0's left factor is nonzero are differenced explicitly;
    on the other rows P0 vanishes and P's part is normed through a QR of
    right^H.  For a free P0, D holds the r disc rows, so no dim x dim array
    is formed and nothing cancels outside them.
    """
    rows = np.any(p0.left != 0, axis=1)
    near = p.left[rows] @ p.right - p0.left[rows] @ p0.right
    return float(np.hypot(np.linalg.norm(near), _factored_norm(p.left[~rows], p.right)))


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
