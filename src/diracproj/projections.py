"""Riesz spectral projections by contour quadrature, and their deviations.

A projection onto the spectral subspace inside a circle is the contour
integral (1/2pi i) * oint (lambda - L)^{-1} d lambda.  On the trapezoid
rule with M equispaced nodes lambda_j = c + R e^{i theta_j} this becomes

    P  ~=  (R / M) * sum_j e^{i theta_j} (lambda_j - L)^{-1},

which for each eigenvalue mu of L is a scalar filter: exactly
1/(1 - d^M) with d = (mu - c)/R (Trefethen & Weideman, SIAM Review 56,
2014), evaluated as -e/(1 - e), e = d^-M, when mu is outside the circle.
Both tails die geometrically in M, which is why node-doubling checks are
a meaningful convergence diagnostic.

Each contour is projected on its own: J holds the eigenvalues whose
filter value is above roundoff.  The disc sweep takes the window's discs
one at a time in (|n|, n) order, and gives each its deviation from the
free P_n^0 and, with f given, P_n f.  Refusals keep one order.  An
eigenvalue within PROXIMITY_TOL of a contour refuses before anything is
integrated: the sweep checks every disc first and names the first such
disc.  Then, disc by disc, come the Schur route's certification, the
trace gate and the idempotency gate.

Two routes build the factors; both apply the same filter rule and gates.
The spectral route diagonalizes L once and filters each eigenvalue
(legitimate by linearity); its factors V[:, J] diag(f_J) and V^{-1}[J, :]
are gathers, at O(dim r) per contour.  When the eigenvector basis is
ill-conditioned (defective or nearly so), the Schur route works on one
complex Schur form L = Z T Z^H per operator.  zgees computes it in place
on the operator's dense() scratch matrix, and one ztrsen reorders it in
place so that the w eigenvalues of the window |lambda| < K/2 + 1/2, which
holds every trusted disc, lead.  V^{-1} is dropped once the route is
chosen, so the step holds about 3 dim x dim complex matrices (V, T and
Z) plus zgees's workspace.  Each contour reorders only that w x w block,
so that J leads, and B = Z_W Q[:, :r] is an orthonormal basis of J's
right invariant subspace.  S L is exactly complex symmetric, S the channel swap, so the
rows B^T S span the left one and P = B F (B^T S B)^{-1} B^T S, F the
trapezoid filter of the leading r x r block (Horn & Johnson, Matrix
Analysis, 4.4), in O(w^2 r + dim w r) per contour.  A contour whose J
leaves the window works on the whole form, w = dim (Golub & Van Loan 7.6).
The dense LU quadrature, node by node, survives only in the tests as the
oracle for both.

Both routes return P as factors left (dim x r) and right (r x dim), and P
stays factored from there on: P f is left (right f), the trace is that of
the r x r product right left, and the idempotency residual
||P^2 - P||_F = ||left A right||_F, A = right left - I, is read from
the r x r Gram matrices left^H left and right right^H.  No dim x dim
array is formed per contour.

_split_deviation is the package's one deviation formula: the disc sweep
calls it on each disc.  The free projection P_n^0 is never built: it is
the coordinate projection onto the basis rows D of the lattice point n,
which BasisIndexSet.position finds by index arithmetic.  The deviation
||P_n - P_n^0||_F is split by rows: the r rows in D are differenced
explicitly (left[D] right minus the identity there), and the other rows,
where P^0 vanishes, have norm ||left[~D] R^H||_F with right^H = Q R,
exact because Q^H has orthonormal rows.  Expanding ||P||^2 - 2 Re tr(P^0 P) + ||P^0||^2 instead
would cancel to about 1e-16 / dev^2 relative.

numpy and scipy each load their own OpenBLAS, and eig runs in scipy's.
Every product and factorization here runs in scipy's too, one raw BLAS or
LAPACK call per matrix (zgemm, zgemv, zgeqrf, zgesv), so a job never
wakes numpy's and pays for one set of BLAS work buffers.  The Schur
route's node matrices (lambda_j - T11) are upper triangular and are
inverted by back-substitution, batched over the nodes.
"""

from __future__ import annotations

import itertools
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
)
from .resolvent import CONDITION_LIMIT

PROXIMITY_TOL = 1e-6
QUALITY_TOL = 1e-6
# the spectral route's error grows like 7e-17 times the eigenbasis condition
# (against the LU oracle); above this limit the Schur route, whose error does
# not grow with it, takes over
SPECTRAL_COND_LIMIT = 1e5
# eigenvalues whose filter value is at or below this floor are left out of
# J: such a term moves no entry of P beyond roundoff.  Far from the contour
# the closed form is exact (below 1e-30 a few radii out), where a node sum
# leaves 1e-17..5e-16 of roundoff; both keep the same J.
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


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    """A rank-r projection P = left @ right, kept as its dim x r and r x dim factors."""

    left: np.ndarray
    right: np.ndarray
    rank: int
    idempotency_residual: float
    contour: ContourSpec
    route: str

    def apply(self, x: np.ndarray) -> np.ndarray:
        return _gemv(self.left, _gemv(self.right, x))


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b in scipy's BLAS, oriented as numpy's row-major call."""
    return scipy.linalg.blas.zgemm(1.0, b.T, a.T).T


def _gemv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x in scipy's BLAS, in the orientation numpy's matmul picks for a's layout."""
    if not a.size:  # zgemv refuses empty operands
        return np.zeros(len(a), dtype=complex)
    if a.flags.f_contiguous:
        return scipy.linalg.blas.zgemv(1.0, a, x)
    return scipy.linalg.blas.zgemv(1.0, a.T, x, trans=1)


def _inverse(a: np.ndarray) -> np.ndarray:
    """a^{-1} by zgesv against I, as np.linalg.inv computes it; all inf when a
    is exactly singular, where zgesv leaves I in place of the solution."""
    if not a.size:  # zgesv refuses empty operands
        return a.copy()
    x, info = scipy.linalg.lapack.zgesv(a, np.eye(len(a), dtype=complex))[2:]
    if info:
        x[...] = np.inf
    return x


def _triangular_inverse(u: np.ndarray) -> np.ndarray:
    """Inverts each upper triangular matrix of a stack in place, by back-substitution:
    row i of U X = I gives X[i, i:] = (e_i - U[i, i+1:] X[i+1:, i:]) / U[i, i], and
    row i of U is last read there, so X's rows replace U's from the bottom up."""
    for i in reversed(range(u.shape[-1])):
        row = -np.einsum("...j,...jk->...k", u[..., i, i + 1 :], u[..., i + 1 :, i:])
        row[..., 0] += 1.0
        u[..., i, i:] = row / u[..., i, i, None]
    return u


def _frobenius(x: np.ndarray) -> float:
    """Frobenius norm of a matrix, read through real views: no temporaries.  It is
    summed over a (1, size) view: the one-axis einsum "i,i->" adds in another
    order, which moves deviations at roundoff."""
    x = x.reshape(1, -1)
    return np.sqrt(np.einsum("ki,ki->k", x.real, x.real) + np.einsum("ki,ki->k", x.imag, x.imag))[0]


def _split_deviation(left: np.ndarray, right: np.ndarray, rows: np.ndarray) -> float:
    """||left @ right - P0||_F, P0 the coordinate projection onto the basis
    rows `rows`, split by rows as the module docstring sets out."""
    # R of right^H = Q R: the upper triangle of zgeqrf's leading r rows
    r = np.triu(scipy.linalg.lapack.zgeqrf(right.conj().T, overwrite_a=1)[0][: len(right)])
    far = left.copy()
    far[rows] = 0.0
    near = _gemm(left[rows], right)
    near[np.arange(len(rows)), rows] -= 1.0
    return float(np.hypot(_frobenius(near), _frobenius(_gemm(far, r.conj().T))))


def _filter(contour: ContourSpec, mu: np.ndarray) -> np.ndarray:
    """Trapezoid filter (R/M) sum_j z_j / (lambda_j - mu) of the circle
    c + R z_j at each value of mu, in closed form: 1/(1 - d^M),
    d = (mu - c)/R, and -e/(1 - e), e = d^-M, outside the circle, so
    |e| <= 1 and nothing overflows.  M is capped at 2^64, where d^M already
    underflows to 0 for every float |d| < 1, so any node count is a float
    exponent."""
    d = (mu - contour.center) / contour.radius
    outside = np.abs(d) >= 1
    np.reciprocal(d, out=d, where=outside)
    e = d ** float(min(contour.nodes, 2**64))
    return np.where(outside, -e, 1.0) / (1 - e)


def _spectral_factors(op: OperatorMatrix, contour: ContourSpec) -> tuple[np.ndarray, np.ndarray]:
    """Factors V[:, J] diag(f_J) and V^{-1}[J, :] of one contour.

    J holds the eigenvalues whose filter value exceeds FILTER_FLOOR, chosen
    by magnitude rather than position so that coarse contours, whose filter
    leaks to far eigenvalues, keep everything that matters.
    """
    vals, vecs = eigen(op)
    filt = _filter(contour, vals)
    keep = np.flatnonzero(np.abs(filt) > FILTER_FLOOR)
    return vecs[:, keep] * filt[keep], eigenbasis_inverse(op)[keep]


def _complex_schur(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, Z) with matrix = Z T Z^H, bit for bit as scipy.linalg.schur(matrix,
    output="complex", overwrite_a=True) gives them, from the same zgees call
    with scipy's own workspace size.  T overwrites the Fortran-ordered
    complex matrix, and the workspace query's outputs are dropped before the
    factorization runs: the step holds matrix, Z and the workspace.  Raises
    np.linalg.LinAlgError when the QR algorithm fails."""
    zgees = scipy.linalg.lapack.zgees
    # no sorting (sort_t = 0): the selection callback is never called; a
    # workspace query (lwork = -1) returns before LAPACK reads the matrix
    lwork = int(zgees(lambda _: None, matrix, lwork=-1, overwrite_a=1)[-2][0].real)
    T, _, _, Z, _, info = zgees(lambda _: None, matrix, lwork=lwork, overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError(f"Schur form not found (zgees info {info})")
    return T, Z


def _swap_symmetric(op: OperatorMatrix) -> bool:
    """Whether S L is exactly complex symmetric, S the channel swap, read from
    L's nonzeros: entry (r, c) of L is entry (swap[r], c) of S L."""
    rows, cols = op.basis.swap[op.rows], op.cols
    flat, mirrored = rows * op.dim + cols, cols * op.dim + rows
    here, there = np.argsort(flat), np.argsort(mirrored)
    return np.array_equal(flat[here], mirrored[there]) and np.array_equal(op.values[here], op.values[there])


def _schur_form(op: OperatorMatrix) -> tuple[np.ndarray, np.ndarray, int]:
    """L = Z T Z^H, once per operator, with the w eigenvalues of the window
    |lambda| < K/2 + 1/2 (every trusted disc) leading diag(T); w = dim when
    none lies there.  Raises ProjectionQualityError unless S L is exactly
    complex symmetric, S the channel swap, as every build_operator L is.

    The route reads V^{-1} for its choice only, so it is dropped here: with
    V, the step holds T, Z and zgees's workspace, and ztrsen reorders in place.
    """
    if "schur" not in op._aux_cache:
        op._aux_cache.pop("vinv", None)
        if not _swap_symmetric(op):
            raise ProjectionQualityError("the Schur route needs S L exactly complex symmetric, S the channel swap")
        T, Z = _complex_schur(op.dense())
        window = np.abs(np.diagonal(T)) < op.basis.trusted_limit + 0.5
        # complex ztrsen fails only on illegal arguments
        T, Z, _, w, _, _, _ = scipy.linalg.lapack.ztrsen(window, T, Z, job="N", overwrite_t=1, overwrite_q=1)
        op._aux_cache["schur"] = (T, Z, w or op.dim)
    return op._aux_cache["schur"]


def _schur_factors(op: OperatorMatrix, contour: ContourSpec) -> tuple[np.ndarray, np.ndarray]:
    """Factors (B F, (B^T S B)^{-1} B^T S) of one contour from the window Schur form.

    The filter over diag(T) selects J, which is moved to the leading block
    T11 of the window block TW = Q [[T11, T12], [0, T22]] Q^H, B = Z_W Q[:, :r],
    and F is the trapezoid filter of T11; when J reaches outside the window,
    the whole form is the window (w = dim).  F comes from one
    back-substitution, in place, over the stack of triangular node matrices,
    and (B^T S B)^{-1} from one zgesv.  Raises ProjectionQualityError when
    the projector norm bound ||(B^T S B)^{-1}||_F exceeds CONDITION_LIMIT (it
    bounds ||P||_2: B has orthonormal columns and B^T S orthonormal rows),
    or is infinite because B^T S B is singular.  F is a sum over the nodes:
    a node stack too large to hold raises MemoryError, naming the node count.
    """
    T, Z, w = _schur_form(op)
    radius, nodes = contour.radius, contour.nodes
    select = np.abs(_filter(contour, np.diagonal(T))) > FILTER_FLOOR
    n = op.dim if select[w:].any() else w
    # ztrsen moves every selected eigenvalue: r = |J|
    TW, Q, _, r, _, _, _ = scipy.linalg.lapack.ztrsen(select[:n], T[:n, :n], np.eye(n, dtype=complex), job="N")
    basis = _gemm(Z[:, :n], Q[:, :r])

    rows = basis[op.basis.swap].T  # B^T S
    inverse = _inverse(_gemm(rows, basis))
    norm = _frobenius(inverse)
    if not norm <= CONDITION_LIMIT:
        raise ProjectionQualityError(
            f"Schur route cannot certify the projection at |z - {contour.center}| = {radius}: "
            f"projector norm bound {norm:.3e} exceeds {CONDITION_LIMIT:.0e}"
        )

    # lambda_j - T11 at every node center + radius e^{2 pi i k / nodes}
    try:
        points = contour.center + radius * np.exp(1j * (2 * np.pi * np.arange(nodes) / nodes))
        shifted = np.repeat(-TW[None, :r, :r], nodes, axis=0)
    except (MemoryError, ValueError) as exc:  # ValueError: past numpy's largest array
        raise MemoryError(f"a contour of {nodes} quadrature nodes needs a node stack too large to hold: {exc}") from None
    np.einsum("jaa->ja", shifted)[...] += points[:, None]
    phases = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    filt = (radius / nodes) * np.einsum("j,jab->ab", phases, _triangular_inverse(shifted))
    return _gemm(basis, filt), _gemm(inverse, rows)


def _proximity(op: OperatorMatrix, contour: ContourSpec) -> float:
    """The nearest eigenvalue's distance from the contour.  Refuses the
    contour when an eigenvalue of the truncation lies within PROXIMITY_TOL."""
    vals, _ = eigen(op)
    gaps = np.abs(np.abs(vals - contour.center) - contour.radius)
    nearest = np.argmin(gaps)
    if gaps[nearest] < PROXIMITY_TOL:
        raise ContourProximityError(
            f"eigenvalue {vals[nearest]} lies within {PROXIMITY_TOL:.0e} of the contour "
            f"|z - {contour.center}| = {contour.radius}"
        )
    return float(gaps[nearest])


def _project(
    op: OperatorMatrix, contour: ContourSpec, quality_threshold: float | None = QUALITY_TOL
) -> tuple[ProjectionResult, complex]:
    """The projection of one contour whose proximity is checked (_proximity),
    and its trace; refused by the Schur route's certification, then (unless
    quality_threshold is None) by the trace and idempotency gates."""
    route = "spectral" if eigenbasis_condition(op) <= SPECTRAL_COND_LIMIT else "schur"
    left, right = (_spectral_factors if route == "spectral" else _schur_factors)(op, contour)

    gram = _gemm(right, left)
    # ||P^2 - P||_F^2 = ||left A right||_F^2 = tr(A^H (left^H left) A (right right^H)), A = gram - I
    defect = gram - np.eye(len(gram))
    lhl = _gemm(left.conj().T, left)
    rrh = _gemm(right, right.conj().T)
    chain = _gemm(_gemm(lhl, defect), rrh)
    residual = math.sqrt(max(np.einsum("ab,ab->", defect.conj(), chain).real, 0.0))
    trace = np.trace(gram)
    rank = int(np.rint(trace.real))
    if quality_threshold is not None:
        if np.abs(trace - rank) > quality_threshold:
            raise ProjectionQualityError(
                f"projection trace {complex(trace)} is not close to an integer rank; increase contour nodes"
            )
        if residual > quality_threshold:
            raise ProjectionQualityError(
                f"idempotency residual {residual:.3e} exceeds {quality_threshold:.1e}; increase contour nodes"
            )
    return ProjectionResult(left, right, rank, residual, contour, route), trace


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
    _proximity(op, contour)
    return _project(op, contour, quality_threshold)[0]


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


@dataclass(frozen=True)
class DeviationReport:
    """Per-disc deviations ||P_n - P_n^0||_HS over a window N < |n| <= M.

    discs run in the canonical (|n|, n) order; ranks and deviations follow
    them, and cumulative holds the running partial sums of the squared
    deviations, so the last entry is the tail sum that the
    quadratic-closeness criterion bounds.  route names the projection route,
    and residuals, trace_gaps (|trace - rank|) and offsets (the nearest
    eigenvalue's distance from the contour) are each disc's gate values.
    """

    discs: tuple[int, ...]
    ranks: tuple[int, ...]
    deviations: tuple[float, ...]
    cumulative: tuple[float, ...]
    route: str
    residuals: tuple[float, ...]
    trace_gaps: tuple[float, ...]
    offsets: tuple[float, ...]

    @property
    def tail_sum(self) -> float:
        return self.cumulative[-1] if self.cumulative else 0.0

    @property
    def gates(self) -> dict:
        """The worst gate margins over the discs, as run.json records them."""
        return {
            "route": self.route,
            "max_idempotency_residual": max(self.residuals),
            "max_trace_gap": max(self.trace_gaps),
            "min_contour_offset": min(self.offsets),
        }


def _disc_sweep(
    op: OperatorMatrix,
    N: int,
    threshold: int,
    M: float | None,
    radius: float,
    nodes: int,
    f: np.ndarray | None = None,
) -> tuple[DeviationReport, tuple[np.ndarray, ...]]:
    """The one pass over the disc window N < |n| <= M (M defaults to K/2).

    `threshold` is the verified threshold of the operator's potential
    (find_threshold_n).  N below it is refused, so the radius-1/2 circle
    around every disc of the window passes the smallness test, which
    circle_norm_profile evaluates on that circle only; for a smaller radius
    it is the disc's eigenvalue count that localization_counts checks
    (deviations reports it as localization_verified_beyond_N).  M beyond
    the trusted window K/2 and a window with no disc in it are refused too.
    Every disc's proximity is checked first; then each disc in turn gets its
    projection P_n, its deviation from the free P_n^0 and, with f given, P_n f.
    """
    if N < threshold:
        raise ValueError(f"N = {N} is below the verified threshold {threshold} for this potential")
    limit = op.basis.trusted_limit
    M = limit if M is None else M
    if M > limit:
        raise ValueError(f"M = {M} exceeds the trusted window |n| <= {limit}")
    discs = tuple(sorted((n for n in disc_centers(op.basis.bc, M) if abs(n) > N), key=lambda n: (abs(n), n)))
    if not discs:
        raise ValueError(f"no discs in the window |n| <= M = {M} past the cutoff")
    contours = [ContourSpec(n, radius, nodes) for n in discs]
    offsets = tuple(_proximity(op, contour) for contour in contours)
    ranks, devs, residuals, gaps, terms = [], [], [], [], []
    for n, contour in zip(discs, contours):
        p, trace = _project(op, contour)
        rows = np.array([op.basis.position(n, ch) for ch in op.basis.channels])
        devs.append(_split_deviation(p.left, p.right, rows))
        if f is not None:
            terms.append(p.apply(f))
        ranks.append(p.rank)
        residuals.append(p.idempotency_residual)
        gaps.append(float(np.abs(trace - p.rank)))
    cumulative = tuple(itertools.accumulate(d * d for d in devs))
    report = DeviationReport(discs, tuple(ranks), tuple(devs), cumulative, p.route, tuple(residuals), tuple(gaps), offsets)
    return report, tuple(terms)


def deviation_report(
    op: OperatorMatrix,
    N: int,
    threshold: int,
    radius: float = 0.5,
    nodes: int = 64,
    max_disc: float | None = None,
) -> DeviationReport:
    """Deviations for every trusted disc N < |n| <= max_disc (default K/2).

    N must be at or above the verified `threshold`, and max_disc at most K/2.
    """
    return _disc_sweep(op, N, threshold, max_disc, radius, nodes)[0]


def localization_counts(op: OperatorMatrix, radius: float = 0.5) -> tuple[dict[int, int], list[int | None]]:
    """Eigenvalues of the truncation strictly inside each trusted disc, and
    the disc of each eigenvalue in eigen's order (None outside every disc).

    Discs of radius at most 1/2 around lattice points at least 1 apart are
    disjoint, and an eigenvalue inside one is nearest its center; so each
    eigenvalue is assigned to its nearest center, and the counts are the
    tally of that assignment.
    """
    if not 0 < radius <= 0.5:
        raise ValueError(f"disc radius must lie in (0, 1/2], got {radius}")
    vals, _ = eigen(op)
    centers = disc_centers(op.basis.bc, op.basis.trusted_limit)
    dist = np.abs(vals[:, None] - np.array(centers))
    nearest = np.argmin(dist, axis=1)
    inside = dist[np.arange(len(vals)), nearest] < radius
    counts = np.bincount(nearest[inside], minlength=len(centers))
    return dict(zip(centers, counts.tolist())), [centers[i] if ok else None for i, ok in zip(nearest, inside)]
