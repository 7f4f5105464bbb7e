"""Riesz spectral projections by contour quadrature, and their deviations.

A projection onto the spectral subspace inside a circle is the contour
integral (1/2pi i) * oint (lambda - L)^{-1} d lambda.  On the trapezoid
rule with M equispaced nodes lambda_j = c + R e^{i theta_j} this becomes

    P  ~=  (R / M) * sum_j e^{i theta_j} (lambda_j - L)^{-1},

which for each eigenvalue mu of L is a scalar filter: exactly
1/(1 - d^M) with d = (mu - c)/R when mu is inside the circle, and
-1/(d^M - 1) when outside.  Both tails die geometrically in M, which is
why node-doubling checks are a meaningful convergence diagnostic.

Projections are computed in batches.  One pass (_project) takes circles of
one radius and node count and computes, as stacked array operations, each
circle's proximity offset, the set S of eigenvalues its filter keeps, the
factors of its projection and its trace and idempotency gates.  The disc
sweep sends the window's disc contours through it in chunks of DISC_CHUNK
and, in the same pass, takes each disc's deviation from the free P_n^0 and,
with f given, P_n f; riesz_projection is the pass on a batch of one
contour.  The filter is summed only for the eigenvalues within reach of a
contour, and S holds those whose filter value is above roundoff.

Two routes build the factors; both apply the same filter rule and gates.
The spectral route diagonalizes L once and filters each eigenvalue
(legitimate by linearity); its factors V[:, S] diag(f_S) and V^{-1}[S, :]
are gathers, at O(dim r) per contour.  When the eigenvector basis is
ill-conditioned (defective or nearly so), the Schur route works on one
complex Schur form L = Z T Z^H, decoupled once per operator: one reorder
moves the w eigenvalues of the window |lambda| < K/2 + 1/2, which holds
every trusted disc, to the leading block TW, and one Sylvester solve for
its coupling Y splits TW off the rest (Bavely & Stewart 1979).  S comes
from one filter over diag(T) for the whole batch.  Each contour then
reorders only TW so that S leads and solves one r x (w - r) Sylvester
equation for the coupling X; the r x r node filters of every contour are
inverted in one batched call, in O(w^2 r + dim w r) per contour.  A
contour whose S leaves the window takes the same steps on the whole form,
w = dim (Golub & Van Loan 7.6; Bai & Demmel 1993).  The dense LU
quadrature, node by node, survives only in the tests as the oracle for
both, next to the per-contour bodies the batched pass replaced.

Both routes return P as factors left (dim x r) and right (r x dim), and P
stays factored from there on: P f is left (right f), the trace is that of
the r x r product right left, and the idempotency residual
||P^2 - P||_F = ||left A right||_F, A = right left - I, is read from
the r x r Gram matrices left^H left and right right^H.  No dim x dim
array is formed per contour.

_split_deviation is the package's one deviation formula: the disc sweep
calls it on each chunk.  The free projection P_n^0 is never built: it is
the coordinate projection onto the basis rows D of the lattice point n,
which _free_rows finds by index arithmetic.  The deviation ||P_n - P_n^0||_F
is split by rows: the r rows in D are differenced explicitly (left[D] right
minus the identity there), and the other rows, where P^0 vanishes, have
norm ||left[~D] R^H||_F with right^H = Q R, exact because Q^H has
orthonormal rows.  Expanding ||P||^2 - 2 Re tr(P^0 P) + ||P^0||^2 instead
would cancel to about 1e-16 / dev^2 relative.  In a batch the factors are
zero-padded to the largest r; the padding adds nothing to any of these.

numpy and scipy each load their own OpenBLAS with its own thread pool,
and eig runs in scipy's.  A single contour's products (the global circle
holds r = 40-50 eigenvalues at K = 128) run in scipy's BLAS, oriented as
numpy's row-major calls; a chunk's stacked disc products have inner size
r and stay in numpy's matmul, too small to wake its threads.
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
# the filter is summed only within R * FILTER_REACH^(1/M) of the center,
# where the exact filter falls below 1 / FILTER_REACH.  The full sum beyond
# is roundoff, which on wide global circles passed FILTER_FLOOR at 1e17
FILTER_REACH = 1e28
# discs per batched pass: at dim 514 and r = 2 a chunk's stacked factors
# are about 0.26 MB each
DISC_CHUNK = 16


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


@dataclass(frozen=True)
class ProjectionResult:
    """A rank-r projection P = left @ right, kept as its dim x r and r x dim factors."""

    left: np.ndarray
    right: np.ndarray
    rank: int
    idempotency_residual: float
    contour: ContourSpec
    route: str

    @property
    def matrix(self) -> np.ndarray:
        """The dense P, formed on demand; the library itself never asks for it."""
        return self.left @ self.right

    def apply(self, x: np.ndarray) -> np.ndarray:
        return _apply(self.left[None], self.right[None], x)[0]


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b in scipy's BLAS, oriented as numpy's row-major call."""
    return scipy.linalg.blas.zgemm(1.0, b.T, a.T).T


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked a @ b.  A stack of one runs in scipy's BLAS; a longer stack
    is a chunk of small disc products, left to numpy."""
    return _gemm(a[0], b[0])[None] if len(a) == 1 else a @ b


def _gemv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x in scipy's BLAS, in the orientation numpy's matmul picks for a's layout."""
    if a.flags.f_contiguous:
        return scipy.linalg.blas.zgemv(1.0, a, x)
    return scipy.linalg.blas.zgemv(1.0, a.T, x, trans=1)


def _apply(left: np.ndarray, right: np.ndarray, x: np.ndarray) -> np.ndarray:
    """left[k] @ (right[k] @ x) for every k of a stack, x one vector."""
    if len(left) == 1:
        return _gemv(left[0], _gemv(right[0], x))[None]
    return (left @ (right @ x)[:, :, None])[:, :, 0]


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, read through real views: no temporaries."""
    x = x.reshape(len(x), -1)
    return np.sqrt(np.einsum("ki,ki->k", x.real, x.real) + np.einsum("ki,ki->k", x.imag, x.imag))


def _split_deviation(left: np.ndarray, right: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """||left[k] @ right[k] - P0_k||_F for every k of a stack, where P0_k is
    the coordinate projection onto the basis rows rows[k].

    The rows are differenced explicitly; off them the norm is
    ||left[~rows] R^H||_F with right^H = Q R, exact because Q^H has
    orthonormal rows.
    """
    at = np.arange(len(left))[:, None]
    r = np.linalg.qr(right.conj().transpose(0, 2, 1), mode="r")
    far = left.copy()
    far[at, rows] = 0.0
    far_norm = _frobenius(_mm(far, r.conj().transpose(0, 2, 1)))
    del far
    near = _mm(left[at, rows], right)
    near[at, np.arange(rows.shape[1]), rows] -= 1.0
    return np.hypot(_frobenius(near), far_norm)


def _filter(centers: np.ndarray, radius: float, nodes: int, mu: np.ndarray) -> np.ndarray:
    """Trapezoid filter (R/M) sum_j z_j / (lambda_j - mu) of each circle
    c + R z_j at each value of mu, as a len(centers) x len(mu) array;
    0 beyond the reach set by FILTER_REACH."""
    phases = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    lams = centers[:, None] + radius * phases
    reach = radius * FILTER_REACH ** (1 / nodes)
    disc, near = np.nonzero(np.abs(mu - centers[:, None]) < reach)
    filt = np.zeros((len(centers), len(mu)), dtype=complex)
    filt[disc, near] = (radius / nodes) * (phases / (lams[disc] - mu[near, None])).sum(axis=1)
    return filt


def _spectral_factors(op: OperatorMatrix, centers: np.ndarray, radius: float, nodes: int):
    """Stacked factors V[:, S] diag(f_S) and V^{-1}[S, :], padded to the largest |S|.

    S holds the eigenvalues whose filter value exceeds FILTER_FLOOR, chosen
    by magnitude rather than position so that coarse contours, whose filter
    leaks to far eigenvalues, keep everything that matters.  Returns
    (left, right, valid), valid marking the slots that are not padding.
    """
    vals, vecs = eigen(op)
    filt = _filter(centers, radius, nodes, vals)
    keep = np.abs(filt) > FILTER_FLOOR
    counts = keep.sum(axis=1)
    valid = np.arange(counts.max(initial=0)) < counts[:, None]
    idx = np.zeros(valid.shape, dtype=np.intp)
    idx[valid] = np.nonzero(keep)[1]
    weights = np.where(valid, np.take_along_axis(filt, idx, axis=1), 0.0)
    del filt
    left = vecs[:, idx]
    left *= weights
    right = eigenbasis_inverse(op)[idx]
    right *= valid[:, :, None]
    return left.transpose(1, 0, 2), right, valid


def _schur_form(op: OperatorMatrix) -> tuple[np.ndarray, np.ndarray, int, np.ndarray, float]:
    """L = Z T Z^H decoupled at the window |lambda| < K/2 + 1/2, once per operator.

    Returns (T, Z, w, right, y_norm).  The w window eigenvalues lead diag(T),
    TW Y - Y TR = -TWR splits the leading w x w block TW from the rest TR,
    and right = [I, -Y] Z^H (w x dim) maps into the window's invariant
    subspace, spanned by Z[:, :w].  When the window cannot be split off,
    w = dim, right = Z^H and y_norm = 0.
    """
    if "schur" not in op._aux_cache:
        T, Z = scipy.linalg.schur(op.entries, output="complex")
        window = np.abs(np.diagonal(T)) < op.basis.trusted_limit + 0.5
        T, Z, _, w, _, _, info = scipy.linalg.lapack.ztrsen(window, T, Z, job="N")
        Y, scale = np.zeros((w, op.dim - w), dtype=complex), 1.0
        if info == 0 and 0 < w < op.dim:
            Y, scale, info = scipy.linalg.lapack.ztrsyl(T[:w, :w], T[w:, w:], -T[:w, w:], isgn=-1)
        if info != 0 or scale < 1.0 or w == 0:
            w, Y = op.dim, np.zeros((op.dim, 0), dtype=complex)
        # Y Z_R^H in scipy's BLAS, next to schur, oriented as numpy's row-major product so the bits match
        right = Z[:, :w].conj().T - scipy.linalg.blas.zgemm(1.0, Z[:, w:].conj(), Y.T).T
        op._aux_cache["schur"] = (T, Z, w, right, float(np.linalg.norm(Y)))
    return op._aux_cache["schur"]


def _schur_factors(op: OperatorMatrix, centers: np.ndarray, radius: float, nodes: int):
    """Stacked factors (Z_W Q1 F, [I, -X] Q^H [I, -Y] Z^H) from the decoupled Schur form.

    One filter over diag(T) selects S for every contour.  Per contour, S is
    moved to the leading block T11 of the window block
    TW = Q [[T11, T12], [0, T22]] Q^H and T11 X - X T22 = -T12 is solved;
    when S reaches outside the window, the whole form is the window
    (w = dim, Y = 0).  The trapezoid filters F of every T11 come from one
    batched inverse.  Returns (left, right, valid, refusal) for the contours
    before the first one that LAPACK fails on, or whose projector norm bound
    hypot(1, ||X||_F) hypot(1, ||Y||_F) exceeds CONDITION_LIMIT; refusal is
    the ProjectionQualityError for that contour, None if every contour passed.
    """
    T, Z, w, right_w, y_norm = _schur_form(op)
    select = np.abs(_filter(centers, radius, nodes, np.diagonal(T))) > FILTER_FLOOR
    counts = select.sum(axis=1)  # r of each contour: ztrsen moves every selected eigenvalue
    valid = np.arange(counts.max(initial=0)) < counts[:, None]
    count, width = valid.shape
    t11 = np.zeros((count, width, width), dtype=complex)
    basis = np.zeros((count, op.dim, width), dtype=complex)
    right = np.zeros((count, width, op.dim), dtype=complex)
    forms, refusal = {}, None
    for k, sel in enumerate(select):
        whole = bool(sel[w:].any())
        if whole not in forms:
            n = op.dim if whole else w
            rows = Z.conj().T if whole else right_w
            forms[whole] = (np.asfortranarray(T[:n, :n]), np.eye(n, dtype=complex, order="F"), Z[:, :n], rows)
        TW, eye, Z_W, rows = forms[whole]
        TW, Q, _, r, _, _, info = scipy.linalg.lapack.ztrsen(sel[: len(TW)], TW, eye, job="N")
        X, scale = np.zeros((r, len(TW) - r), dtype=complex), 1.0
        if info == 0 and 0 < r < len(TW):
            X, scale, info = scipy.linalg.lapack.ztrsyl(TW[:r, :r], TW[r:, r:], -TW[:r, r:], isgn=-1)
        norm = math.hypot(1.0, float(np.linalg.norm(X))) * math.hypot(1.0, 0.0 if whole else y_norm)
        if info != 0 or scale < 1.0 or not norm <= CONDITION_LIMIT:
            refusal = ProjectionQualityError(
                f"Schur route cannot certify the projection (LAPACK info {info}, Sylvester scale {scale}, "
                f"projector norm {norm:.3e} against {CONDITION_LIMIT:.0e})"
            )
            count = k
            break
        t11[k, :r, :r] = TW[:r, :r]
        basis[k, :, :r] = _gemm(Z_W, Q[:, :r])
        right[k, :r] = _gemm(Q[:, :r].conj().T - _gemm(X, Q[:, r:].conj().T), rows)

    # lambda_j - T11 at every node (as circle_samples); padding slots invert the identity and are masked out of F
    valid = valid[:count]
    points = centers[:count, None] + radius * np.exp(1j * (2 * np.pi * np.arange(nodes) / nodes))
    shifted = np.repeat(-t11[:count, None], nodes, axis=1)
    np.einsum("kjaa->kja", shifted)[...] += np.where(valid[:, None, :], points[:, :, None], 1.0)
    phases = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    filt = (radius / nodes) * np.einsum("j,kjab->kab", phases, np.linalg.inv(shifted))
    filt *= valid[:, :, None] & valid[:, None, :]
    return _mm(basis[:count], filt), right[:count], valid, refusal


@dataclass(frozen=True)
class _Batch:
    """Projections of a batch of contours: stacked factors, zero-padded to the
    batch's largest r, and each contour's gate values."""

    left: np.ndarray  # count x dim x r
    right: np.ndarray  # count x r x dim
    ranks: np.ndarray
    traces: np.ndarray
    residuals: np.ndarray
    offsets: np.ndarray
    route: str


def _project(
    op: OperatorMatrix, contours: list[ContourSpec], quality_threshold: float | None = QUALITY_TOL
) -> _Batch:
    """Contour-quadrature projections of circles sharing one radius and node count.

    Refuses the first contour, in the given order, that has an eigenvalue of
    the truncation within PROXIMITY_TOL, that the Schur route cannot
    certify, or (unless quality_threshold is None) whose trace is not
    within quality_threshold of an integer or whose idempotency residual
    exceeds it; no contour past a proximity refusal is integrated.  Schur
    route above SPECTRAL_COND_LIMIT.
    """
    radius, nodes = contours[0].radius, contours[0].nodes
    assert all((c.radius, c.nodes) == (radius, nodes) for c in contours)
    centers = np.array([c.center for c in contours])
    vals, _ = eigen(op)
    gaps = np.abs(np.abs(vals - centers[:, None]) - radius)
    nearest = np.argmin(gaps, axis=1)
    offsets = gaps[np.arange(len(contours)), nearest]
    close = np.flatnonzero(offsets < PROXIMITY_TOL)
    stop = int(close[0]) if close.size else len(contours)
    proximity = None
    if stop < len(contours):
        proximity = ContourProximityError(
            f"eigenvalue {vals[nearest[stop]]} lies within {PROXIMITY_TOL:.0e} of the contour "
            f"|z - {contours[stop].center}| = {contours[stop].radius}"
        )
        if stop == 0:
            raise proximity
    route = "spectral" if eigenbasis_condition(op) <= SPECTRAL_COND_LIMIT else "schur"
    if route == "spectral":
        left, right, valid = _spectral_factors(op, centers[:stop], radius, nodes)
        refusal = None
    else:
        left, right, valid, refusal = _schur_factors(op, centers[:stop], radius, nodes)

    gram = _mm(right, left)
    # ||P^2 - P||_F^2 = ||left A right||_F^2 = tr(A^H (left^H left) A (right right^H)), A = gram - I
    defect = gram - valid[:, :, None] * np.eye(valid.shape[1])
    lhl = _mm(left.conj().transpose(0, 2, 1), left)
    rrh = _mm(right, right.conj().transpose(0, 2, 1))
    chain = _mm(_mm(lhl, defect), rrh)
    residuals = np.sqrt(np.maximum(np.einsum("kab,kab->k", defect.conj(), chain).real, 0.0))
    traces = np.trace(gram, axis1=1, axis2=2)
    ranks = np.rint(traces.real).astype(int)
    if quality_threshold is not None:
        off_rank = np.abs(traces - ranks) > quality_threshold
        failed = np.flatnonzero(off_rank | (residuals > quality_threshold))
        if failed.size:
            k = failed[0]
            if off_rank[k]:
                raise ProjectionQualityError(
                    f"projection trace {complex(traces[k])} is not close to an integer rank; increase contour nodes"
                )
            raise ProjectionQualityError(
                f"idempotency residual {residuals[k]:.3e} exceeds {quality_threshold:.1e}; increase contour nodes"
            )
    if refusal is not None:
        raise refusal
    if proximity is not None:
        raise proximity
    return _Batch(left, right, ranks, traces, residuals, offsets, route)


def riesz_projection(
    op: OperatorMatrix,
    contour: ContourSpec,
    quality_threshold: float | None = QUALITY_TOL,
) -> ProjectionResult:
    """Contour-quadrature spectral projection with proximity/quality gates.

    The batched pass on one contour.  Refuses when an eigenvalue of the
    truncation lies within PROXIMITY_TOL of the contour.  With
    quality_threshold = None the idempotency and rank gates are skipped
    (used by node-convergence studies that build coarse projections on
    purpose).  Schur route above SPECTRAL_COND_LIMIT.
    """
    batch = _project(op, [contour], quality_threshold)
    return ProjectionResult(
        batch.left[0], batch.right[0], int(batch.ranks[0]), float(batch.residuals[0]), contour, batch.route
    )


def _free_rows(bc: str, K: int, ns) -> np.ndarray:
    """Basis rows of the lattice points ns, one row of indices per point: by
    index arithmetic on the ascending, channel-interleaved basis ordering."""
    points = lattice_points(bc, K)
    channels = 1 if bc == DIRICHLET else 2  # also the lattice step
    slot, offset = np.divmod(np.asarray(ns, dtype=int) - points[0], channels)
    bad = np.flatnonzero(offset | (slot < 0) | (slot >= len(points)))
    if bad.size:
        raise ValueError(f"lattice point {ns[bad[0]]} not present in the {bc} truncation at K = {K}")
    return channels * slot[:, None] + np.arange(channels)


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
    (find_threshold_n).  N below it is refused, so every contour integrated
    over satisfies the smallness test; so are M beyond the trusted window
    K/2 and a window with no disc in it.  The discs go through the batched
    pass DISC_CHUNK at a time; each gets its projection P_n, its deviation
    from the free P_n^0 and, with f given, P_n f.  A chunk's projections are
    dropped before the next chunk.
    """
    if N < threshold:
        raise ValueError(f"N = {N} is below the verified threshold {threshold} for this potential")
    bc, K = op.basis.bc, op.basis.K
    limit = op.basis.trusted_limit
    M = limit if M is None else M
    if M > limit:
        raise ValueError(f"M = {M} exceeds the trusted window |n| <= {limit}")
    discs = tuple(sorted((n for n in disc_centers(bc, M) if abs(n) > N), key=lambda n: (abs(n), n)))
    if not discs:
        raise ValueError(f"no discs in the window |n| <= M = {M} past the cutoff")
    ranks, devs, residuals, gaps, offsets, terms = [], [], [], [], [], []
    for start in range(0, len(discs), DISC_CHUNK):
        chunk = discs[start : start + DISC_CHUNK]
        batch = _project(op, [ContourSpec(n, radius, nodes) for n in chunk])
        devs += _split_deviation(batch.left, batch.right, _free_rows(bc, K, chunk)).tolist()
        if f is not None:
            terms += list(_apply(batch.left, batch.right, f))
        ranks += batch.ranks.tolist()
        residuals += batch.residuals.tolist()
        gaps += np.abs(batch.traces - batch.ranks).tolist()
        offsets += batch.offsets.tolist()
    cumulative = tuple(itertools.accumulate(d * d for d in devs))
    report = DeviationReport(
        discs, tuple(ranks), tuple(devs), cumulative, batch.route, tuple(residuals), tuple(gaps), tuple(offsets)
    )
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


def localization_counts(op: OperatorMatrix, radius: float = 0.5) -> dict[int, int]:
    """Eigenvalues of the truncation strictly inside each trusted disc."""
    vals, _ = eigen(op)
    centers = disc_centers(op.basis.bc, op.basis.trusted_limit)
    counts = np.count_nonzero(np.abs(vals - np.array(centers, dtype=float)[:, None]) < radius, axis=1)
    return dict(zip(centers, counts.tolist()))
