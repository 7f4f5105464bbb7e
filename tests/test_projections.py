"""Contour quadrature, Riesz projections, and deviation reports."""

import itertools
import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from diracproj import projections, resolvent
from diracproj.cli import load_potential_file
from diracproj.decomposition import FunctionVector, disc_expansion
from diracproj.operator import (
    OperatorMatrix,
    basis_index_set,
    build_operator,
    disc_centers,
    eigen,
    eigenbasis_condition,
    eigenbasis_inverse,
    lattice_points,
)
from diracproj.potential import (
    DIRICHLET,
    PER_MINUS,
    PER_PLUS,
    BC_TAGS,
    PotentialSpec,
    random_potential,
)
from diracproj.projections import (
    ContourProximityError,
    ContourSpec,
    ProjectionQualityError,
    ProjectionResult,
    FILTER_FLOOR,
    PROXIMITY_TOL,
    SPECTRAL_COND_LIMIT,
    _complex_schur,
    _disc_sweep,
    _filter,
    _inverse,
    _project,
    _schur_factors,
    _schur_form,
    _spectral_factors,
    _split_deviation,
    _triangular_inverse,
    default_global_nodes,
    deviation_report,
    global_projection,
    localization_counts,
    riesz_projection,
)
from diracproj.resolvent import CONDITION_LIMIT, IllConditionedError, ShiftedSolve, find_threshold_n
from helpers import circle_samples, free_matrix, projection_matrix, traced_peak, zero_potential

CONST = PotentialSpec(p_even={0: 1.0}, q_even={0: 1.0}, p_odd={}, q_odd={}, max_mode=0)


def _quadrature_lu(op: OperatorMatrix, contour: ContourSpec) -> np.ndarray:
    ident = np.eye(op.dim, dtype=complex)
    acc = np.zeros((op.dim, op.dim), dtype=complex)
    for lam, phase in zip(contour_points(contour), np.exp(2j * np.pi * np.arange(contour.nodes) / contour.nodes)):
        acc += phase * ShiftedSolve(op, lam).solve(ident)
    return (contour.radius / contour.nodes) * acc


def contour_points(contour):
    """The contour's quadrature nodes lambda_j."""
    return circle_samples(contour.center, contour.radius, contour.nodes)


# -- the per-contour routes in numpy's own linear algebra, kept as the oracle ----

def quadrature_spectral(op, contour):
    """Factors (V[:, S] diag(f_S), V^{-1}[S, :]) of one contour."""
    vals, vecs = eigen(op)
    filt = _filter(contour, vals)
    keep = np.flatnonzero(np.abs(filt) > FILTER_FLOOR)
    return vecs[:, keep] * filt[keep], eigenbasis_inverse(op)[keep, :]


def quadrature_schur(op, contour):
    """Factors (B F, (B^T S B)^{-1} B^T S) of one contour from the window Schur form,
    B = Z_W Q[:, :r] and S the channel swap."""
    T, Z, w = _schur_form(op)
    select = np.abs(_filter(contour, np.diagonal(T))) > FILTER_FLOOR
    if select[w:].any():
        w = op.dim
    TW, Q, _, r, _, _, _ = scipy.linalg.lapack.ztrsen(select[:w], T[:w, :w], np.eye(w, dtype=complex), job="N")
    basis = Z[:, :w] @ Q[:, :r]
    rows = basis[op.basis.swap].T
    inverse = np.linalg.inv(rows @ basis)
    norm = float(np.linalg.norm(inverse))
    if not norm <= CONDITION_LIMIT:
        raise ProjectionQualityError(
            f"Schur route cannot certify the projection at |z - {contour.center}| = {contour.radius}: "
            f"projector norm bound {norm:.3e} exceeds {CONDITION_LIMIT:.0e}"
        )
    phases = np.exp(2j * np.pi * np.arange(contour.nodes) / contour.nodes)
    shifted = contour_points(contour)[:, None, None] * np.eye(r) - TW[:r, :r]
    filt = (contour.radius / contour.nodes) * np.einsum("j,jab->ab", phases, _triangular_inverse(shifted))
    return basis @ filt, inverse @ rows


def oracle_projection(op, contour, quality_threshold=projections.QUALITY_TOL):
    """One contour's projection with its gates, as (left, right, rank, residual, trace, offset)."""
    vals, _ = eigen(op)
    offsets = np.abs(np.abs(vals - contour.center) - contour.radius)
    worst = int(np.argmin(offsets))
    if offsets[worst] < PROXIMITY_TOL:
        raise ContourProximityError(
            f"eigenvalue {vals[worst]} lies within {PROXIMITY_TOL:.0e} of the contour "
            f"|z - {contour.center}| = {contour.radius}"
        )
    spectral = eigenbasis_condition(op) <= projections.SPECTRAL_COND_LIMIT
    left, right = (quadrature_spectral if spectral else quadrature_schur)(op, contour)
    gram = right @ left
    defect = gram - np.eye(len(gram))
    residual = math.sqrt(max(np.vdot(defect, (left.conj().T @ left) @ defect @ (right @ right.conj().T)).real, 0.0))
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
    return left, right, rank, residual, trace, float(offsets[worst])


def oracle_deviation(left, right, bc, n, K):
    """||left right - P_n^0||_F: the disc rows differenced, the rest normed through a QR of right^H."""
    p0 = free_matrix(bc, n, K)
    rows = np.any(p0 != 0, axis=1)
    near = left[rows] @ right - p0[rows]
    far = left[~rows] @ np.linalg.qr(right.conj().T, mode="r").conj().T
    return float(np.hypot(np.linalg.norm(near), np.linalg.norm(far)))


def oracle_sweep(op, discs, radius, nodes, f):
    """The per-disc loop: one projection, its deviation and P_n f per disc."""
    ranks, devs, terms = [], [], []
    for n in discs:
        left, right, rank, *_ = oracle_projection(op, ContourSpec(n, radius, nodes))
        ranks.append(rank)
        devs.append(oracle_deviation(left, right, op.basis.bc, n, op.basis.K))
        terms.append(left @ (right @ f))
    return ranks, devs, terms


class TestContourSpec:
    def test_points_on_circle(self):
        # the filter sums over the contour's nodes, circle_samples of its center, radius and node count
        c = ContourSpec(3.0, 0.5, 16)
        pts = contour_points(c)
        assert pts.shape == (16,)
        assert np.allclose(np.abs(pts - 3.0), 0.5)
        mu = np.array([3.1 + 0.2j, 5.0])
        want = (c.radius / c.nodes) * ((pts - c.center) / c.radius / (pts - mu[:, None])).sum(axis=1)
        assert np.max(np.abs(_filter(c, mu) - want)) <= 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            ContourSpec(0, -1.0, 16)
        with pytest.raises(ValueError):
            ContourSpec(0, 0.5, 15)
        with pytest.raises(ValueError):
            ContourSpec(0, 0.5, 4)


def free_rows(bc, K, ns):
    """Basis rows of each lattice point of ns, one row of indices per point, as the disc sweep finds them."""
    basis = basis_index_set(bc, K)
    return np.array([[basis.position(n, ch) for ch in basis.channels] for n in ns])


class TestScipyKernels:
    """The projections' own inverses, which keep the work in scipy's LAPACK."""

    def test_triangular_inverse_in_place(self):
        rng = np.random.default_rng(5)
        u = np.triu(rng.standard_normal((3, 4, 6, 6)) + 1j * rng.standard_normal((3, 4, 6, 6))) + 3 * np.eye(6)
        want = np.linalg.inv(u)
        got = _triangular_inverse(u)
        assert got is u
        assert np.array_equal(np.tril(got, -1), np.zeros_like(got))
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_inverse_matches_numpy_and_marks_singular(self):
        a = np.array([[2.0, 1.0j], [0.5, 3.0 - 1.0j]])
        assert np.max(np.abs(_inverse(a) - np.linalg.inv(a))) <= 1e-16
        # zgesv leaves I in place of the solution at an exact zero pivot
        assert np.all(np.isinf(_inverse(np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex))))


class TestFreeProjection:
    """P_n^0 is the coordinate projection onto the basis rows of n, one per
    channel; the disc sweep finds those rows by index arithmetic
    (BasisIndexSet.position)."""

    @pytest.mark.parametrize("bc,rank", [(PER_PLUS, 2), (PER_MINUS, 2), (DIRICHLET, 1)])
    def test_rank_and_diagonal(self, bc, rank):
        n = -3 if bc == PER_MINUS else (2 if bc == PER_PLUS else 1)
        rows = free_rows(bc, 8, [n])
        assert rows.shape == (1, rank)
        p0 = free_matrix(bc, n, 8)
        assert np.array_equal(np.flatnonzero(np.diag(p0)), rows[0])
        assert np.array_equal(p0, np.diag(np.diag(p0)))

    def test_off_lattice_point_rejected(self):
        with pytest.raises(KeyError):
            free_rows(PER_PLUS, 8, [3])

    def test_rows_found_by_index_arithmetic(self):
        # every index against its place in the enumeration, then the refusals
        for bc, K in itertools.product(BC_TAGS, (0, 1, 8, 64)):
            basis = basis_index_set(bc, K)
            assert [basis.position(n, ch) for n, ch in basis.indices] == list(range(basis.dim)), (bc, K)
            top, step = basis.points[-1], len(basis.channels)
            refused = [(top + step, basis.channels[0]), (-top - step, basis.channels[-1])]  # past the lattice
            refused.append((top, 1 if bc == DIRICHLET else 0))  # the wrong channel
            if bc != DIRICHLET:
                refused.append((top - 1, 1))  # the other parity
            for n, ch in refused:
                with pytest.raises(KeyError):
                    basis.position(n, ch)


class TestRieszProjection:
    @pytest.mark.parametrize("bc", BC_TAGS)
    def test_free_case_is_exact(self, bc):
        op = build_operator(zero_potential(), bc, 8)
        n = 2 if bc != PER_MINUS else 3
        p = riesz_projection(op, ContourSpec(n, 0.5, 64))
        p0 = free_matrix(bc, n, 8)
        assert np.linalg.norm(projection_matrix(p) - p0) < 1e-12
        assert p.rank == np.trace(p0).real

    def test_routes_agree(self):
        # spectral factors, Schur factors and the LU oracle on one operator;
        # the automatic choice is the spectral route, bit for bit
        spec = random_potential(1, norm=0.5)
        op = build_operator(spec, PER_PLUS, 8)
        contour = ContourSpec(4, 0.5, 64)
        a = np.matmul(*quadrature_spectral(op, contour))
        s = np.matmul(*quadrature_schur(op, contour))
        b = _quadrature_lu(op, contour)
        c = riesz_projection(op, contour)
        assert np.max(np.abs(a - b)) < 1e-9
        assert np.max(np.abs(s - b)) < 1e-9
        assert c.route == "spectral"
        assert np.max(np.abs(a - projection_matrix(c))) == 0.0
        assert c.rank == int(round(np.trace(b).real))

    def test_contour_around_no_eigenvalue(self):
        # a rank-0 projection has empty factors, and applies as zero
        op = build_operator(zero_potential(), DIRICHLET, 8)
        p = riesz_projection(op, ContourSpec(100, 0.5, 64))
        assert p.rank == 0 and p.left.shape == (op.dim, 0)
        assert np.array_equal(p.apply(np.ones(op.dim, dtype=complex)), np.zeros(op.dim))

    def test_eigenvalue_on_contour_refused(self):
        op = build_operator(zero_potential(), DIRICHLET, 8)
        with pytest.raises(ContourProximityError):
            riesz_projection(op, ContourSpec(0.5, 0.5, 64))

    def test_coarse_quadrature_fails_quality_gate(self):
        op = build_operator(zero_potential(), DIRICHLET, 8)
        with pytest.raises(ProjectionQualityError):
            riesz_projection(op, ContourSpec(1, 0.5, 8))

    def test_quality_gate_can_be_disabled(self):
        op = build_operator(zero_potential(), DIRICHLET, 8)
        p = riesz_projection(op, ContourSpec(1, 0.5, 8), quality_threshold=None)
        assert p.idempotency_residual > 0
        assert p.rank == 1

    def test_idempotent_and_localized_rank(self):
        op = build_operator(CONST, PER_PLUS, 8)
        p = riesz_projection(op, ContourSpec(2, 0.5, 64))
        assert p.rank == 2
        assert np.linalg.norm(projection_matrix(p) @ projection_matrix(p) - projection_matrix(p)) < 1e-10

    def test_nodes_doubling_contracts_error(self):
        # quadrature error is geometric in the node count, so one doubling
        # must shrink the defect by far more than 10x
        op = build_operator(CONST, PER_PLUS, 16)
        ps = {
            nodes: riesz_projection(op, ContourSpec(2, 0.5, nodes), quality_threshold=None)
            for nodes in (16, 32, 64)
        }
        first = np.linalg.norm(projection_matrix(ps[16]) - projection_matrix(ps[32]))
        second = np.linalg.norm(projection_matrix(ps[32]) - projection_matrix(ps[64]))
        assert second <= 0.1 * first

    def test_disc_projections_sum_to_identity_free_case(self):
        op = build_operator(zero_potential(), PER_PLUS, 8)
        # default nodes target ~1e-8 here (eigenvalues at distance ratio 4/3
        # from the global circle); 256 nodes push that to the fp floor
        total = projection_matrix(global_projection(op, 1, nodes=256))
        for n in range(-16, 17, 2):  # the whole lattice, |n| <= 2K
            if n != 0:
                total += projection_matrix(riesz_projection(op, ContourSpec(n, 0.5, 64)))
        assert np.max(np.abs(total - np.eye(op.dim))) < 1e-12


def full_filter(contour, mu):
    """The trapezoid filter summed at every value of mu: a len(mu) x nodes array."""
    phases = np.exp(2j * np.pi * np.arange(contour.nodes) / contour.nodes)
    lams = contour.center + contour.radius * phases
    return (contour.radius / contour.nodes) * (phases[None, :] / (lams[None, :] - mu[:, None])).sum(axis=1)


def dense_spectral_projection(op, contour):
    """The full filter over every eigenvalue: (V diag(f)) V^{-1}."""
    vals, vecs = eigen(op)
    return (vecs * full_filter(contour, vals)) @ eigenbasis_inverse(op)


class TestLowRankSpectralRoute:
    """The spectral route keeps only eigenvalues with |filter| above roundoff;
    it must reproduce the dense filter over all of them."""

    def check(self, op, p):
        assert p.route == "spectral"
        dense = dense_spectral_projection(op, p.contour)
        assert np.max(np.abs(projection_matrix(p) - dense)) <= 1e-12
        assert p.rank == int(round(np.trace(dense).real))
        assert abs(np.trace(projection_matrix(p)) - np.trace(dense)) <= 1e-12
        assert p.idempotency_residual == pytest.approx(
            np.linalg.norm(dense @ dense - dense), abs=1e-12
        )

    @pytest.mark.parametrize("bc", BC_TAGS)
    def test_discs_and_global(self, bc):
        spec = random_potential(3, norm=0.3)
        op = build_operator(spec, bc, 32)
        N = find_threshold_n(spec, bc, 32)
        for n in disc_centers(bc, 16):
            if abs(n) > N:
                self.check(op, riesz_projection(op, ContourSpec(n, 0.5, 64)))
        self.check(op, global_projection(op, N))

    @pytest.mark.parametrize("bc", BC_TAGS)
    def test_coarse_contour(self, bc):
        # at 8 nodes the filter leaks to eigenvalues far from the disc, so
        # choosing them by position would miss terms the dense sum has
        op = build_operator(random_potential(3, norm=0.3), bc, 32)
        n = 5 if bc == PER_MINUS else 6
        p = riesz_projection(op, ContourSpec(n, 0.5, 8), quality_threshold=None)
        self.check(op, p)
        assert p.idempotency_residual > 1e-6


def dense_operator(basis, matrix):
    """The operator of a hand-built dense matrix, held as its nonzeros."""
    rows, cols = np.nonzero(matrix)
    return OperatorMatrix(basis, rows, cols, matrix[rows, cols])


def coupled_triangle(coupling):
    """Upper-triangular 3 x 3 operator with eigenvalues 0, 0.9, 2 and the
    first two coupled: not complex symmetric, so the Schur route refuses it."""
    entries = np.diag([0.0, 0.9, 2.0]).astype(complex)
    entries[0, 1] = coupling
    return dense_operator(basis_index_set(DIRICHLET, 1), entries)


def symmetric_pair(s):
    """Complex-symmetric 3 x 3 operator [[0.45 + i s, b], [b, 0.45 - i s]] + [2]
    with b^2 = 0.2025 + s^2: eigenvalues 0, 0.9 and 2, and an eigenbasis
    condition of about 4.4 s."""
    b = math.sqrt(0.2025 + s * s)
    entries = np.diag([0.45 + 1j * s, 0.45 - 1j * s, 2.0])
    entries[0, 1] = entries[1, 0] = b
    return dense_operator(basis_index_set(DIRICHLET, 1), entries)


def structured_potential(seed, p_scale, q_scale):
    """random_potential(seed, norm=0.3) with P and Q scaled separately."""
    v = random_potential(seed, norm=0.3)
    p = {m: p_scale * c for m, c in (*v.p_even.items(), *v.p_odd.items())}
    q = {m: q_scale * c for m, c in (*v.q_even.items(), *v.q_odd.items())}
    return PotentialSpec(
        p_even={m: c for m, c in p.items() if m % 2 == 0},
        q_even={m: c for m, c in q.items() if m % 2 == 0},
        p_odd={m: c for m, c in p.items() if m % 2 != 0},
        q_odd={m: c for m, c in q.items() if m % 2 != 0},
        max_mode=v.max_mode,
    )


def _decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


# eps = 0 is exactly defective; eps in 1e-16..1e-11 puts the per+ / per-
# eigenbasis condition at 1e6..1e8, where the spectral route's error
# (about 7e-17 * cond) would pass 1e-10
EPSILON = st.one_of(st.just(0.0), _decades(-16.0, -1.0), _decades(-16.0, -11.0))
# (P scale, Q scale): P-only, Q-only and nearly defective P-only + eps Q
SCALES = st.one_of(st.just((1.0, 0.0)), st.just((0.0, 1.0)), EPSILON.map(lambda e: (1.0, e)))


class TestSchurRoute:
    """Ill-conditioned eigenbases take the sorted-Schur route; it must agree
    with the dense LU quadrature and refuse what it cannot certify."""

    def test_certification_refuses_huge_coupling(self, monkeypatch):
        # ||(B^T S B)^{-1}||_F is about 2.2 s, but float64 keeps the eigenvalues near 0 and 0.9
        # only to about s = 1e5 (at s = 1e14 they come out near +-1.4e6), far below the limit
        # 1e12; so both gates are lowered to 1e4, between s = 1e2 (2.2e2) and s = 1e5 (2.2e5)
        monkeypatch.setattr(projections, "CONDITION_LIMIT", 1e4)
        monkeypatch.setattr(resolvent, "CONDITION_LIMIT", 1e4)
        op = symmetric_pair(1e5)
        contour = ContourSpec(0, 0.5, 64)
        assert eigenbasis_condition(op) > SPECTRAL_COND_LIMIT
        # the certification holds even with the node-count gates off
        for threshold in (1e-6, None):
            with pytest.raises(ProjectionQualityError, match="projector norm"):
                riesz_projection(op, contour, quality_threshold=threshold)
        with pytest.raises(IllConditionedError):
            _quadrature_lu(op, contour)

    def test_moderate_coupling_matches_oracle(self):
        # against an mpmath reference every float64 route carries about 4e-16 s^3 of error on
        # this pair (4e-10 at s = 1e2, Schur and spectral alike), so s = 30 keeps 1e-10 meaningful
        op = symmetric_pair(30.0)
        contour = ContourSpec(0, 0.5, 64)
        p = np.matmul(*quadrature_schur(op, contour))
        want = _quadrature_lu(op, contour)
        assert np.max(np.abs(p - want)) <= 1e-10
        assert np.max(np.abs(projection_matrix(riesz_projection(op, contour)) - want)) <= 1e-10

    def test_defective_truncation_and_coarse_contour(self):
        op = build_operator(structured_potential(0, 1.0, 0.0), PER_PLUS, 16)
        p = riesz_projection(op, ContourSpec(8, 0.5, 64))
        assert p.route == "schur"
        assert p.rank == 2
        # the filter acts on the triangular block, so 8 nodes stay inexact
        with pytest.raises(ProjectionQualityError):
            riesz_projection(op, ContourSpec(8, 0.5, 8))

    @settings(max_examples=16, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), scales=SCALES, bc=st.sampled_from(BC_TAGS))
    def test_auto_route_matches_lu_oracle(self, seed, scales, bc):
        spec = structured_potential(seed, *scales)
        op = build_operator(spec, bc, 16)
        N = find_threshold_n(spec, bc, 16)
        route = "schur" if eigenbasis_condition(op) > SPECTRAL_COND_LIMIT else "spectral"
        contours = [ContourSpec(n, 0.5, 64) for n in disc_centers(bc, 8) if abs(n) > N]
        for contour in contours + [global_projection(op, N).contour]:
            p = riesz_projection(op, contour)
            want = _quadrature_lu(op, contour)
            assert p.route == route
            assert np.max(np.abs(projection_matrix(p) - want)) <= 1e-10
            assert p.rank == int(round(np.trace(want).real))


def full_reorder_schur(form, contour):
    """The Schur route that reorders per contour: `form` = (T, Z) is the
    operator's Schur form as scipy returns it, and every contour moves S to
    the front of the whole dim x dim T and solves a full-size Sylvester
    equation."""
    T, Z = form
    dim = len(T)
    select = np.abs(full_filter(contour, np.diagonal(T))) > FILTER_FLOOR
    T, Z, _, r, _, _, info = scipy.linalg.lapack.ztrsen(select, T, Z, job="N")
    X, scale = np.zeros((r, dim - r), dtype=complex), 1.0
    if info == 0 and 0 < r < dim:
        X, scale, info = scipy.linalg.lapack.ztrsyl(T[:r, :r], T[r:, r:], -T[:r, r:], isgn=-1)
    norm = math.hypot(1.0, float(np.linalg.norm(X)))
    if info != 0 or scale < 1.0 or not norm <= CONDITION_LIMIT:
        raise ProjectionQualityError(
            f"Schur route cannot certify the projection (LAPACK info {info}, Sylvester scale {scale}, "
            f"projector norm {norm:.3e} against {CONDITION_LIMIT:.0e})"
        )
    phases = np.exp(2j * np.pi * np.arange(contour.nodes) / contour.nodes)
    shifted = contour_points(contour)[:, None, None] * np.eye(r) - T[:r, :r]
    filt = (contour.radius / contour.nodes) * np.einsum("j,jab->ab", phases, np.linalg.inv(shifted))
    return Z[:, :r] @ filt, Z[:, :r].conj().T - X @ Z[:, r:].conj().T


def _leaves_window(op, contour):
    """Whether the contour selects an eigenvalue outside the window."""
    T, _, w = _schur_form(op)
    return bool(np.any(np.abs(_filter(contour, np.diagonal(T)))[w:] > FILTER_FLOOR))


def _window_cases():
    """name -> (potential, bc, K, extra contours whose selection leaves the window)."""
    cases = {}
    for (p, q), bc, K in itertools.product(((1.0, 0.0), (0.0, 1.0)), (PER_PLUS, PER_MINUS), (32, 64)):
        cases[f"{'P' if p else 'Q'}-only-{bc}-K{K}"] = (structured_potential(0, p, q), bc, K, [])
    # 8 nodes leak the filter across the spectrum; radius 1.5 at K/2 reaches the next lattice point
    cases["P-only-per+-K32"] = cases["P-only-per+-K32"][:3] + ([ContourSpec(8, 0.5, 8), ContourSpec(16, 1.5, 64)],)
    cases["P-only+1e-10Q-per+-K32"] = (structured_potential(0, 1.0, 1e-10), PER_PLUS, 32, [])
    return cases


WINDOW_CASES = _window_cases()


class TestSchurWindow:
    """The Schur route reorders a window form once per operator; each
    contour's factors must match the per-contour full reorder entrywise."""

    def check(self, op, contours):
        """Each contour through _schur_factors, against the full reorder."""
        form = scipy.linalg.schur(op.dense(), output="complex")
        for contour in contours:
            left, right = _schur_factors(op, contour)
            want = np.matmul(*full_reorder_schur(form, contour))
            assert np.max(np.abs(left @ right - want)) <= 1e-13 * np.linalg.norm(want), contour
            selected = np.abs(_filter(contour, np.diagonal(form[0]))) > FILTER_FLOOR
            assert left.shape[1] == len(right) == np.count_nonzero(selected)

    @pytest.mark.parametrize("case", sorted(WINDOW_CASES))
    def test_matches_full_reorder(self, case):
        spec, bc, K, leaving = WINDOW_CASES[case]
        op = build_operator(spec, bc, K)
        N = find_threshold_n(spec, bc, K)
        # the window holds one eigenvalue per basis row of the trusted discs
        assert _schur_form(op)[2] == np.count_nonzero(np.abs(op.basis.free_diagonal()) <= K / 2) < op.dim
        discs = [ContourSpec(n, 0.5, 64) for n in disc_centers(bc, K / 2)]
        radius = N + 0.5
        global_ = ContourSpec(0, radius, default_global_nodes(radius))
        assert not any(_leaves_window(op, contour) for contour in discs + [global_])
        self.check(op, discs)
        self.check(op, [global_])
        for contour in leaving:
            assert _leaves_window(op, contour)
            self.check(op, [contour])

    def test_coupled_triangle(self, monkeypatch):
        # not complex symmetric: refused before any Schur work, on the factors and on riesz_projection
        op = coupled_triangle(1e2)
        with pytest.raises(ProjectionQualityError, match="exactly complex symmetric"):
            _schur_factors(op, ContourSpec(0, 0.5, 64))
        monkeypatch.setattr(projections, "SPECTRAL_COND_LIMIT", 0.0)
        with pytest.raises(ProjectionQualityError, match="exactly complex symmetric"):
            riesz_projection(op, ContourSpec(0, 0.5, 64))
        assert "schur" not in op._aux_cache

    def test_symmetric_pair(self):
        op = symmetric_pair(1e2)
        assert _schur_form(op)[2] == 2  # 0 and 0.9 lie in the window |z| < 1
        for contour, leaves in [(ContourSpec(0, 0.5, 64), False), (ContourSpec(0.9, 0.3, 64), False),
                                (ContourSpec(2, 0.5, 64), True)]:
            assert _leaves_window(op, contour) == leaves
            self.check(op, [contour])

    def test_complex_schur_matches_scipy(self, benchmark_cases):
        # the direct zgees, with scipy's own workspace size, gives scipy's T and Z bit for bit
        cases = [case for case in benchmark_cases("defective", [0]) if case[1] == PER_PLUS]
        assert [(Path(path).stem, K) for path, _, K in cases] == [(f"defective-0-{name}", 32) for name in ("p_only", "q_only")]
        for path, bc, K in cases:
            op = build_operator(load_potential_file(path), bc, K)
            T, Z = _complex_schur(op.dense())
            want_T, want_Z = scipy.linalg.schur(op.dense(), output="complex")
            assert T.tobytes() == want_T.tobytes() and Z.tobytes() == want_Z.tobytes()

    def test_schur_route_peak(self):
        # from a fresh P-only per+ operator through the route choice and the Schur
        # form, no step holds more than V next to zgees's own step (T, Z and its
        # workspace), nor more than zgeev's: V^-1 is dropped once the route is chosen,
        # the workspace query's outputs never meet the factorization, and ztrsen
        # reorders in place
        spec = structured_potential(0, 1.0, 0.0)
        zgeev = traced_peak(spec, PER_PLUS, 64, lambda op: scipy.linalg.eig(op.dense(), overwrite_a=True))
        zgees = traced_peak(spec, PER_PLUS, 64, lambda op: _complex_schur(op.dense()))

        def route_and_form(op):
            assert eigenbasis_condition(op) > SPECTRAL_COND_LIMIT
            _schur_form(op)
            assert "vinv" not in op._aux_cache

        whole = traced_peak(spec, PER_PLUS, 64, route_and_form)
        assert whole <= max(zgeev, 1 + zgees) + 0.05

    def test_whole_form_without_window(self):
        # shifted by 5, no eigenvalue lies in the window |z| < 1: w = dim, and every contour works on the whole form
        pair = symmetric_pair(1e2)
        op = dense_operator(pair.basis, pair.dense() + 5 * np.eye(3))
        assert _schur_form(op)[2] == op.dim
        self.check(op, [ContourSpec(5, 0.5, 64), ContourSpec(7, 0.5, 64)])


def far_values(contour, mu, count=8):
    """Indices of up to `count` values of mu at |d| >= 2, d = (mu - c)/R, spread
    from the nearest to the farthest."""
    dist = np.abs(mu - contour.center) / contour.radius
    far = np.flatnonzero(dist >= 2)
    far = far[np.argsort(dist[far])]
    return far[np.unique(np.linspace(0, len(far) - 1, count).astype(int))] if len(far) else far


def exact_filter(contour, mu):
    """1/(1 - d^M) at one value mu in 30-digit arithmetic, from the float inputs taken as exact."""
    with mpmath.workdps(30):
        d = (mpmath.mpc(mu) - mpmath.mpc(contour.center)) / contour.radius
        return 1 / (1 - d**contour.nodes)


class TestClosedFormFilter:
    """_filter evaluates the trapezoid sum in closed form.  On every operator
    of the benchmark's spectral and defective workloads, on the disc and the
    global contours, it keeps the eigenvalues the node sum (full_filter)
    keeps, the spectral route's factors match those of the node sum, and far
    from the contour, where the node sum is pure roundoff, it matches a
    30-digit evaluation."""

    # measured over these operators: 2.7e-15
    FACTOR_TOL = 1e-14
    # the filter's condition number in mu is M far from the contour, so a
    # float64 d carries M ulp into d^M; measured: 1.4 M ulp on the discs
    # (M = 64) and 2.7 M ulp on the global contours
    FAR_ULPS = 4

    @pytest.mark.parametrize("workload", ["spectral", "defective"])
    def test_matches_the_node_sum(self, benchmark_cases, workload):
        eps = np.finfo(float).eps
        for path, bc, K in benchmark_cases(workload, range(3)):
            spec = load_potential_file(path)
            N = find_threshold_n(spec, bc, K)
            op = build_operator(spec, bc, K)
            vals, vecs = eigen(op)
            spectral = eigenbasis_condition(op) <= SPECTRAL_COND_LIMIT
            values = [vals] if spectral else [vals, np.diagonal(_schur_form(op)[0])]
            radius = N + 0.5
            discs = [ContourSpec(n, 0.5, 64) for n in disc_centers(bc, K / 2) if abs(n) > N]
            for contour in discs + [ContourSpec(0, radius, default_global_nodes(radius))]:
                for mu in values:
                    filt = _filter(contour, mu)
                    keep = np.flatnonzero(np.abs(full_filter(contour, mu)) > FILTER_FLOOR)
                    assert np.array_equal(np.flatnonzero(np.abs(filt) > FILTER_FLOOR), keep)
                    for i in far_values(contour, mu):
                        want = exact_filter(contour, mu[i])
                        # underflow: below the smallest normal float64 the closed form may read 0
                        tol = self.FAR_ULPS * contour.nodes * eps * abs(want) + np.finfo(float).smallest_normal
                        assert abs(mpmath.mpc(filt[i]) - want) <= tol, (contour, mu[i])
                if spectral:
                    # the contour's gathered factors
                    left, right = _spectral_factors(op, contour)
                    full = full_filter(contour, vals)
                    keep = np.flatnonzero(np.abs(full) > FILTER_FLOOR)
                    want = vecs[:, keep] * full[keep]
                    assert np.max(np.abs(left - want)) <= self.FACTOR_TOL * np.max(np.abs(want))
                    assert np.array_equal(right, eigenbasis_inverse(op)[keep, :])

    @pytest.mark.parametrize("nodes", [10**17, 10**30, 10**400], ids=["1e17", "1e30", "1e400"])
    def test_huge_node_counts_cost_nothing(self, nodes):
        # nothing grows with the node count: at 10^17 nodes or more each
        # disc's filter holds a few arrays of the values, raises no
        # floating-point warning (the suite turns RuntimeWarning into an error)
        # and is the exact indicator of the disc; mu holds every center, where d = 0
        centers = np.arange(-8, 8) + 0j
        rng = np.random.default_rng(5)
        mu = np.concatenate([centers, 5 * rng.standard_normal(500) + 1j * rng.standard_normal(500)])
        tracemalloc.start()
        try:
            filt = np.array([_filter(ContourSpec(c, 0.5, nodes), mu) for c in centers])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * filt.nbytes
        inside = np.abs(mu - centers[:, None]) < 0.5
        assert np.array_equal(filt, inside.astype(complex))


class TestFactoredForm:
    """Projections stay as rank-r factors: every library use of a disc or
    global projection works on them, and nothing forms the dense P."""

    @pytest.fixture(params=["spectral", "schur"])
    def route(self, request, monkeypatch):
        if request.param == "schur":
            # every eigenbasis is above a zero limit, so each operator takes the Schur route
            monkeypatch.setattr(projections, "SPECTRAL_COND_LIMIT", 0.0)
        return request.param

    @pytest.mark.parametrize("bc", BC_TAGS)
    def test_deviation_matches_dense(self, bc, route):
        op = build_operator(random_potential(3, norm=0.3), bc, 32)
        for n in disc_centers(bc, op.basis.trusted_limit):
            p = riesz_projection(op, ContourSpec(n, 0.5, 64))
            assert p.route == route
            dense = np.linalg.norm(projection_matrix(p) - free_matrix(bc, n, 32))
            split = _split_deviation(p.left, p.right, free_rows(bc, 32, [n])[0])
            assert abs(split - dense) <= 1e-13 * dense, n
            f = np.random.default_rng(n + 100).standard_normal(op.dim) + 0j
            assert np.max(np.abs(p.apply(f) - projection_matrix(p) @ f)) <= 1e-13 * np.linalg.norm(f)

    def test_library_never_forms_dense_p(self, route):
        assert not hasattr(ProjectionResult, "matrix")  # the dense P is the tests' projection_matrix
        spec = random_potential(3, norm=0.3)
        N = find_threshold_n(spec, PER_PLUS, 16)
        op = build_operator(spec, PER_PLUS, 16)
        f = FunctionVector(op.basis, np.random.default_rng(0).standard_normal(op.dim) + 0j)
        report = deviation_report(op, N, N)
        expansion = disc_expansion(f, op, N, N, 8)
        s = global_projection(op, N)
        assert s.route == route
        assert expansion.report == report  # one sweep over the same window K/2 = 8

    @staticmethod
    def sweep_peak(op, N):
        """tracemalloc peak of deviation_report(op, N, N), in bytes, and the report."""
        tracemalloc.start()
        try:
            report = deviation_report(op, N, N)
            return tracemalloc.get_traced_memory()[1], report
        finally:
            tracemalloc.stop()

    def test_spectral_discs_allocate_no_dim_squared_array(self):
        # the sweep holds one disc's factors at a time, whose width is the rank:
        # measured 15-17 dim-vectors at K = 64 and 128
        spec = random_potential(3, norm=0.3)
        for bc in (PER_PLUS, DIRICHLET):
            N = find_threshold_n(spec, bc, 64)
            op = build_operator(spec, bc, 64)
            eigenbasis_condition(op)  # the shared decomposition, condition and V^-1
            peak, report = self.sweep_peak(op, N)
            assert len(report.discs) > 20
            assert peak <= 32 * 16 * op.dim, bc  # 32 complex dim-vectors

    def test_schur_discs_allocate_less_than_a_dim_squared_array(self):
        # what one disc holds on the Schur route is its w x w window reorder
        # (w = 66 of dim 258 here): measured 0.43 dim^2
        spec = structured_potential(0, 1.0, 0.0)
        N = find_threshold_n(spec, PER_PLUS, 64)
        op = build_operator(spec, PER_PLUS, 64)
        eigenbasis_condition(op)
        _schur_form(op)  # the shared Schur form, reordered to the window
        peak, report = self.sweep_peak(op, N)
        assert report.route == "schur" and len(report.discs) > 20
        assert peak < 0.6 * 16 * op.dim**2


class TestBatchedPass:
    """The disc sweep and the projection pass against the per-disc oracle
    (oracle_sweep, oracle_projection): ranks exactly, deviations, terms and
    gate values within 1e-13 relative, refusals by the same message, on
    both routes."""

    @pytest.fixture(params=["spectral", "schur"])
    def route(self, request, monkeypatch):
        if request.param == "schur":
            monkeypatch.setattr(projections, "SPECTRAL_COND_LIMIT", 0.0)
        return request.param

    @staticmethod
    def close(got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("bc", BC_TAGS)
    def test_sweep_matches_per_disc_loop(self, bc, route):
        spec = random_potential(3, norm=0.3)
        op = build_operator(spec, bc, 64)
        N = find_threshold_n(spec, bc, 64)
        f = np.random.default_rng(7).standard_normal(op.dim) + 1j * np.random.default_rng(8).standard_normal(op.dim)
        report, terms = _disc_sweep(op, N, N, None, 0.5, 64, f)
        ranks, devs, want_terms = oracle_sweep(op, report.discs, 0.5, 64, f)
        assert report.route == route
        assert report.ranks == tuple(ranks)
        self.close(report.deviations, devs)
        assert report.cumulative[-1] == pytest.approx(sum(d * d for d in devs), rel=1e-13)
        for got, want in zip(terms, want_terms):
            self.close(got, want)
        for n, residual, gap, offset in zip(report.discs, report.residuals, report.trace_gaps, report.offsets):
            _, _, rank, want_residual, trace, want_offset = oracle_projection(op, ContourSpec(n, 0.5, 64))
            assert residual == pytest.approx(want_residual, rel=1e-6, abs=1e-15)
            assert gap == pytest.approx(abs(trace - rank), abs=1e-14)
            assert offset == want_offset

    @pytest.mark.parametrize("bc", BC_TAGS)
    @pytest.mark.parametrize("nodes", [8, 12, 16])
    def test_coarse_contours_with_uneven_keep_sets(self, bc, nodes, route):
        # coarse filters leak to eigenvalues far from the disc; at the ends of
        # the lattice there are fewer to leak to, so the keep sets differ in size
        op = build_operator(random_potential(3, norm=0.3), bc, 32)
        ends = lattice_points(bc, 32)[:2] + lattice_points(bc, 32)[-2:]
        discs = [n for n in disc_centers(bc, 16) if abs(n) > 4] + list(ends)
        for n in discs:
            contour = ContourSpec(n, 0.5, nodes)
            p, trace = _project(op, contour, quality_threshold=None)
            left, right, rank, residual, want_trace, _ = oracle_projection(op, contour, quality_threshold=None)
            assert p.route == route
            assert p.rank == rank
            self.close(p.left @ p.right, left @ right)
            assert p.idempotency_residual == pytest.approx(residual, rel=1e-10)
            assert trace == pytest.approx(want_trace, rel=1e-13)
            dev = _split_deviation(p.left, p.right, free_rows(bc, 32, [n])[0])
            self.close(dev, oracle_deviation(left, right, bc, n, 32))

    def test_schur_selection_leaving_the_window(self):
        # radius 1.5 at 64 nodes keeps the neighbouring lattice points; at
        # n = K/2 that reaches past the window, so that contour works on the
        # whole form and the others on the window form
        op = build_operator(structured_potential(0, 1.0, 0.0), PER_PLUS, 32)
        contours = [ContourSpec(n, 1.5, 64) for n in (10, 12, 14, 16)]
        assert [_leaves_window(op, c) for c in contours] == [False, False, False, True]
        for contour in contours:
            p = riesz_projection(op, contour)
            left, right, rank, *_ = oracle_projection(op, contour)
            assert p.route == "schur"
            assert p.rank == rank == 2
            self.close(p.left @ p.right, left @ right)

    @staticmethod
    def moved_eigenvalue(to):
        """The dir K = 16 free diagonal with the eigenvalue at 6 moved to `to`;
        at 6.5 it lies on the contours of the discs at 6 and 7."""
        diagonal = basis_index_set(DIRICHLET, 16).free_diagonal().astype(complex)
        diagonal[np.flatnonzero(diagonal == 6.0)] = to
        return dense_operator(basis_index_set(DIRICHLET, 16), np.diag(diagonal))

    def test_window_with_an_empty_disc(self, route):
        # at 6.9 the eigenvalue joins the disc at 7 and leaves the one at 6
        # empty: its filter keeps nothing (5e-17 at |d| = 1.8), so P_6 has
        # empty factors, and P_7 holds the rows of 6 and 7
        op = self.moved_eigenvalue(6.9)
        assert riesz_projection(op, ContourSpec(6, 0.5, 64)).left.shape == (op.dim, 0)
        report = deviation_report(op, 2, 2)
        ranks, devs, _ = oracle_sweep(op, report.discs, 0.5, 64, np.ones(op.dim))
        at = {n: k for k, n in enumerate(report.discs)}
        assert report.route == route
        assert (report.ranks[at[6]], report.ranks[at[7]]) == (0, 2)
        assert report.ranks == tuple(ranks)
        assert report.deviations[at[6]] == report.deviations[at[7]] == 1.0
        self.close(report.deviations, devs)

    def test_proximity_refusal_names_the_first_disc(self, route):
        # in (|n|, n) order the disc at 6 comes first
        op = self.moved_eigenvalue(6.5)
        with pytest.raises(ContourProximityError) as want:
            oracle_sweep(op, [-3, 3, -4, 4, -5, 5, -6, 6, -7, 7, -8, 8], 0.5, 64, np.ones(op.dim))
        with pytest.raises(ContourProximityError) as got:
            deviation_report(op, 2, 2)
        assert str(got.value) == str(want.value)
        assert "|z - (6+0j)| = 0.5" in str(got.value)

    def test_proximity_refused_before_quality(self, route):
        # at 8 nodes the first disc, -3, fails the trace gate, and the disc at 6
        # later in the window has an eigenvalue on its contour: the proximity
        # of every disc is checked first, so nothing is integrated
        op = self.moved_eigenvalue(6.5)
        with pytest.raises(ProjectionQualityError):
            oracle_sweep(op, [-3, 3], 0.5, 8, np.ones(op.dim))
        with pytest.raises(ContourProximityError, match=r"\|z - \(6\+0j\)\| = 0.5"):
            deviation_report(op, 2, 2, nodes=8)

    def test_quality_refusal_matches_the_loop(self, route):
        # 8 nodes leave a free disc's trace off its rank: the first disc is refused
        op = build_operator(zero_potential(), DIRICHLET, 16)
        with pytest.raises(ProjectionQualityError) as want:
            oracle_sweep(op, [-2, 2], 0.5, 8, np.ones(op.dim))
        with pytest.raises(ProjectionQualityError) as got:
            deviation_report(op, 1, 1, nodes=8)
        assert str(got.value) == str(want.value)


class TestGlobalProjection:
    def test_default_nodes_floor_and_scaling(self):
        assert default_global_nodes(0.5) == 64
        assert default_global_nodes(21.5) == 860
        assert default_global_nodes(21.5) % 2 == 0

    def test_free_ranks(self):
        op = build_operator(zero_potential(), PER_PLUS, 8)
        assert global_projection(op, 1).rank == 2   # circle |z| = 1.5: mode 0 twice
        assert global_projection(op, 2).rank == 6   # |z| = 2.5 adds the discs at +-2
        assert global_projection(op, 0).rank == 2

    def test_rejects_negative(self):
        op = build_operator(zero_potential(), PER_PLUS, 8)
        with pytest.raises(ValueError):
            global_projection(op, -1)


class TestDeviationReport:
    def test_below_threshold_rejected(self):
        spec = random_potential(0)  # threshold around 20 at unit norm
        op = build_operator(spec, PER_PLUS, 64)
        with pytest.raises(ValueError):
            deviation_report(op, 2, find_threshold_n(spec, PER_PLUS, 64))

    def test_report_shape(self):
        spec = random_potential(0, norm=0.3)
        N = find_threshold_n(spec, PER_PLUS, 32)
        report = deviation_report(build_operator(spec, PER_PLUS, 32), N, N, max_disc=10)
        discs = report.discs
        assert discs == tuple(sorted((n for n in disc_centers(PER_PLUS, 10) if abs(n) > N), key=lambda n: (abs(n), n)))
        assert len(report.ranks) == len(report.deviations) == len(report.cumulative) == len(discs)
        assert report.ranks == (2,) * len(discs)
        cums = report.cumulative
        assert all(b >= a for a, b in zip(cums, cums[1:]))
        assert report.tail_sum == pytest.approx(sum(d * d for d in report.deviations))

    def test_window_beyond_trusted_rejected(self):
        spec = random_potential(0, norm=0.3)
        op = build_operator(spec, PER_PLUS, 32)
        N = find_threshold_n(spec, PER_PLUS, 32)
        with pytest.raises(ValueError, match="trusted window"):
            deviation_report(op, N, N, max_disc=17)

    def test_free_potential_deviations_vanish(self):
        zero = zero_potential()
        op = build_operator(zero, DIRICHLET, 16)
        report = deviation_report(op, 1, find_threshold_n(zero, DIRICHLET, 16), max_disc=6)
        assert report.tail_sum < 1e-20

    def test_deviations_decay_outward(self):
        spec = random_potential(2, norm=0.3)
        N = find_threshold_n(spec, PER_PLUS, 64)
        report = deviation_report(build_operator(spec, PER_PLUS, 64), N, N)
        inner, outer = report.deviations[0], report.deviations[-1]
        assert outer < inner


class TestTriangularOracle:
    """Exact deviations of a Q = 0 potential on the Schur route.

    With Q = 0 a per+- truncation is L = [[D, B], [0, D]] in the channel
    blocks, D = diag(l) over the lattice and B[l, k] = p(-l - k).  The
    resolvent's corner block is -R B R with R = (D - lambda)^-1, so P_n - P_n^0
    is that block's contour integral: B[n, l] / (l - n) in row n, B[l, n] / (l - n)
    in column n, and zero elsewhere.  Hence
    ||P_n - P_n^0||_HS^2 = 2 sum_{l != n} |p(-n - l)|^2 / (n - l)^2, with l over
    the truncation's lattice.
    """

    # measured 7.5e-16 relative at most (per+ K = 32)
    TOL = 4e-15

    @pytest.mark.parametrize("bc, K", [(PER_PLUS, 32), (PER_PLUS, 64), (PER_MINUS, 64)])
    def test_p_only_deviations_match_closed_form(self, bc, K):
        v = random_potential(3, norm=0.5)
        spec = PotentialSpec(p_even=v.p_even, q_even={}, p_odd=v.p_odd, q_odd={}, max_mode=v.max_mode)
        N = find_threshold_n(spec, bc, K)
        report = deviation_report(build_operator(spec, bc, K), N, N)
        assert report.route == "schur"
        assert len(report.discs) >= 16 and report.ranks == (2,) * len(report.discs)
        lattice = lattice_points(bc, K)
        for n, got in zip(report.discs, report.deviations):
            want = math.sqrt(2 * sum(abs(spec.p(-n - l)) ** 2 / (n - l) ** 2 for l in lattice if l != n))
            assert want > 0 and abs(got - want) <= self.TOL * want, (n, got, want)


class TestLocalization:
    def test_constant_potential_counts(self):
        counts, _ = localization_counts(build_operator(CONST, PER_PLUS, 16))
        assert counts[0] == 0  # +-1 sit a full unit away from the center
        for n in (-8, -6, -4, -2, 2, 4, 6, 8):
            assert counts[n] == 2

    @pytest.mark.parametrize("radius", [0.0, -0.5, 0.51, 1.0, float("nan")])
    def test_radius_outside_half_refused(self, radius):
        # discs of radius above 1/2 overlap, and an eigenvalue would have two
        with pytest.raises(ValueError, match="radius"):
            localization_counts(build_operator(zero_potential(), DIRICHLET, 8), radius)

    def test_free_counts(self):
        counts, _ = localization_counts(build_operator(zero_potential(), DIRICHLET, 8))
        assert all(v == 1 for v in counts.values())
        assert sorted(counts) == list(range(-4, 5))
