"""Contour quadrature, Riesz projections, and deviation reports."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracproj import projections
from diracproj.decomposition import FunctionVector, disc_expansion
from diracproj.operator import (
    OperatorMatrix,
    basis_index_set,
    build_free,
    build_operator,
    disc_centers,
    eigen,
    eigenbasis_condition,
    eigenbasis_inverse,
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
    SPECTRAL_COND_LIMIT,
    _quadrature_schur,
    _quadrature_spectral,
    default_global_nodes,
    deviation,
    deviation_report,
    free_projection,
    global_projection,
    localization_counts,
    riesz_projection,
)
from diracproj.resolvent import IllConditionedError, find_threshold_n, shifted_solve

CONST = PotentialSpec(p_even={0: 1.0}, q_even={0: 1.0}, p_odd={}, q_odd={}, max_mode=0)


def _quadrature_lu(op: OperatorMatrix, contour: ContourSpec) -> np.ndarray:
    ident = np.eye(op.dim, dtype=complex)
    acc = np.zeros((op.dim, op.dim), dtype=complex)
    for lam, phase in zip(contour.points(), np.exp(2j * np.pi * np.arange(contour.nodes) / contour.nodes)):
        acc += phase * shifted_solve(op, lam).solve(ident)
    return (contour.radius / contour.nodes) * acc


class TestContourSpec:
    def test_points_on_circle(self):
        c = ContourSpec(3.0, 0.5, 16)
        pts = c.points()
        assert pts.shape == (16,)
        assert np.allclose(np.abs(pts - 3.0), 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            ContourSpec(0, -1.0, 16)
        with pytest.raises(ValueError):
            ContourSpec(0, 0.5, 15)
        with pytest.raises(ValueError):
            ContourSpec(0, 0.5, 4)


class TestFreeProjection:
    @pytest.mark.parametrize("bc,rank", [(PER_PLUS, 2), (PER_MINUS, 2), (DIRICHLET, 1)])
    def test_rank_and_diagonal(self, bc, rank):
        n = -3 if bc == PER_MINUS else (2 if bc == PER_PLUS else 1)
        p = free_projection(bc, n, 8)
        assert p.rank == rank
        assert p.contour is None
        assert p.idempotency_residual == 0.0
        assert np.array_equal(p.matrix, np.diag(np.diag(p.matrix)))
        assert p.hs_norm == pytest.approx(math.sqrt(rank))

    def test_off_lattice_point_rejected(self):
        with pytest.raises(ValueError):
            free_projection(PER_PLUS, 3, 8)

    def test_rows_found_by_index_arithmetic(self):
        # both ends of each lattice, against the basis' own positions
        for bc, n, K in [(PER_PLUS, -8, 4), (PER_PLUS, 8, 4), (PER_MINUS, -9, 4), (PER_MINUS, 9, 4), (DIRICHLET, 0, 0)]:
            p = free_projection(bc, n, K)
            basis = basis_index_set(bc, K)
            want = np.diag([1.0 + 0j if m == n else 0j for m, _ in basis.indices])
            assert np.array_equal(p.matrix, want), (bc, n)
        for bc, n in [(PER_PLUS, 10), (PER_MINUS, -11), (DIRICHLET, 5), (PER_MINUS, 0)]:
            with pytest.raises(ValueError):
                free_projection(bc, n, 4)


class TestRieszProjection:
    @pytest.mark.parametrize("bc", BC_TAGS)
    def test_free_case_is_exact(self, bc):
        op = build_free(bc, 8)
        n = 2 if bc != PER_MINUS else 3
        p = riesz_projection(op, ContourSpec(n, 0.5, 64))
        p0 = free_projection(bc, n, 8)
        assert deviation(p, p0) < 1e-12
        assert p.rank == p0.rank

    def test_routes_agree(self):
        # spectral factors, Schur factors and the LU oracle on one operator;
        # the automatic choice is the spectral route, bit for bit
        spec = random_potential(1, norm=0.5)
        op = build_operator(spec, PER_PLUS, 8)
        contour = ContourSpec(4, 0.5, 64)
        a = np.matmul(*_quadrature_spectral(op, contour))
        s = np.matmul(*_quadrature_schur(op, contour))
        b = _quadrature_lu(op, contour)
        c = riesz_projection(op, contour)
        assert np.max(np.abs(a - b)) < 1e-9
        assert np.max(np.abs(s - b)) < 1e-9
        assert c.route == "spectral"
        assert np.max(np.abs(a - c.matrix)) == 0.0
        assert c.rank == int(round(np.trace(b).real))

    def test_eigenvalue_on_contour_refused(self):
        op = build_free(DIRICHLET, 8)
        with pytest.raises(ContourProximityError):
            riesz_projection(op, ContourSpec(0.5, 0.5, 64))

    def test_coarse_quadrature_fails_quality_gate(self):
        op = build_free(DIRICHLET, 8)
        with pytest.raises(ProjectionQualityError):
            riesz_projection(op, ContourSpec(1, 0.5, 8))

    def test_quality_gate_can_be_disabled(self):
        op = build_free(DIRICHLET, 8)
        p = riesz_projection(op, ContourSpec(1, 0.5, 8), quality_threshold=None)
        assert p.idempotency_residual > 0
        assert p.rank == 1

    def test_idempotent_and_localized_rank(self):
        op = build_operator(CONST, PER_PLUS, 8)
        p = riesz_projection(op, ContourSpec(2, 0.5, 64))
        assert p.rank == 2
        assert np.linalg.norm(p.matrix @ p.matrix - p.matrix) < 1e-10

    def test_nodes_doubling_contracts_error(self):
        # quadrature error is geometric in the node count, so one doubling
        # must shrink the defect by far more than 10x
        op = build_operator(CONST, PER_PLUS, 16)
        ps = {
            nodes: riesz_projection(op, ContourSpec(2, 0.5, nodes), quality_threshold=None)
            for nodes in (16, 32, 64)
        }
        first = deviation(ps[16], ps[32])
        second = deviation(ps[32], ps[64])
        assert second <= 0.1 * first

    def test_disc_projections_sum_to_identity_free_case(self):
        op = build_free(PER_PLUS, 8)
        # default nodes target ~1e-8 here (eigenvalues at distance ratio 4/3
        # from the global circle); 256 nodes push that to the fp floor
        total = global_projection(op, 1, nodes=256).matrix.copy()
        for n in range(-16, 17, 2):  # the whole lattice, |n| <= 2K
            if n != 0:
                total += riesz_projection(op, ContourSpec(n, 0.5, 64)).matrix
        assert np.max(np.abs(total - np.eye(op.dim))) < 1e-12


def dense_spectral_projection(op, contour):
    """The full filter over every eigenvalue: (V diag(f)) V^{-1}."""
    vals, vecs = eigen(op)
    phases = np.exp(2j * np.pi * np.arange(contour.nodes) / contour.nodes)
    lams = contour.center + contour.radius * phases
    filt = (contour.radius / contour.nodes) * (phases[None, :] / (lams[None, :] - vals[:, None])).sum(axis=1)
    return (vecs * filt) @ eigenbasis_inverse(op)


class TestLowRankSpectralRoute:
    """The spectral route keeps only eigenvalues with |filter| above roundoff;
    it must reproduce the dense filter over all of them."""

    def check(self, op, p):
        assert p.route == "spectral"
        dense = dense_spectral_projection(op, p.contour)
        assert np.max(np.abs(p.matrix - dense)) <= 1e-12
        assert p.rank == int(round(np.trace(dense).real))
        assert abs(np.trace(p.matrix) - np.trace(dense)) <= 1e-12
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


def coupled_triangle(coupling):
    """Upper-triangular 3 x 3 operator with eigenvalues 0, 0.9, 2 and the
    first two coupled: its eigenbasis condition grows like the coupling."""
    entries = np.diag([0.0, 0.9, 2.0]).astype(complex)
    entries[0, 1] = coupling
    return OperatorMatrix(basis_index_set(DIRICHLET, 1), entries)


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

    def test_certification_refuses_huge_coupling(self):
        op = coupled_triangle(1e14)
        contour = ContourSpec(0, 0.5, 64)
        assert eigenbasis_condition(op) > SPECTRAL_COND_LIMIT
        # the certification holds even with the node-count gates off
        for threshold in (1e-6, None):
            with pytest.raises(ProjectionQualityError, match="projector norm"):
                riesz_projection(op, contour, quality_threshold=threshold)
        with pytest.raises(IllConditionedError):
            _quadrature_lu(op, contour)

    def test_moderate_coupling_matches_oracle(self):
        op = coupled_triangle(1e2)
        contour = ContourSpec(0, 0.5, 64)
        p = np.matmul(*_quadrature_schur(op, contour))
        want = _quadrature_lu(op, contour)
        assert np.max(np.abs(p - want)) <= 1e-10
        assert np.max(np.abs(riesz_projection(op, contour).matrix - want)) <= 1e-10

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
            assert np.max(np.abs(p.matrix - want)) <= 1e-10
            assert p.rank == int(round(np.trace(want).real))


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
            p0 = free_projection(bc, n, 32)
            assert p.route == route
            dense = np.linalg.norm(p.matrix - p0.matrix)
            assert abs(deviation(p, p0) - dense) <= 1e-13 * dense, n
            assert p.hs_norm == pytest.approx(np.linalg.norm(p.matrix), rel=1e-13)
            f = np.random.default_rng(n + 100).standard_normal(op.dim) + 0j
            assert np.max(np.abs(p.apply(f) - p.matrix @ f)) <= 1e-13 * np.linalg.norm(f)

    def test_library_never_forms_dense_p(self, route, monkeypatch):
        def refuse(self):
            raise AssertionError("dense projection formed")

        spec = random_potential(3, norm=0.3)
        N = find_threshold_n(spec, PER_PLUS, 16)
        op = build_operator(spec, PER_PLUS, 16)
        f = FunctionVector(op.basis, np.random.default_rng(0).standard_normal(op.dim) + 0j)
        monkeypatch.setattr(ProjectionResult, "matrix", property(refuse))
        report = deviation_report(op, N, N)
        expansion = disc_expansion(f, op, N, 8)
        s = global_projection(op, N)
        assert s.route == route
        assert expansion.deviations == tuple(report.per_n[n] for n in expansion.discs)

    def test_spectral_discs_allocate_no_dim_squared_array(self):
        spec = random_potential(3, norm=0.3)
        N = find_threshold_n(spec, PER_PLUS, 64)
        op = build_operator(spec, PER_PLUS, 64)
        eigenbasis_condition(op)  # the shared decomposition, condition and V^-1
        tracemalloc.start()
        try:
            report = deviation_report(op, N, N)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report.per_n) > 20
        assert peak < op.dim**2 * 16  # one dense complex P


class TestGlobalProjection:
    def test_default_nodes_floor_and_scaling(self):
        assert default_global_nodes(0.5) == 64
        assert default_global_nodes(21.5) == 860
        assert default_global_nodes(21.5) % 2 == 0

    def test_free_ranks(self):
        op = build_free(PER_PLUS, 8)
        assert global_projection(op, 1).rank == 2   # circle |z| = 1.5: mode 0 twice
        assert global_projection(op, 2).rank == 6   # |z| = 2.5 adds the discs at +-2
        assert global_projection(op, 0).rank == 2

    def test_rejects_negative(self):
        op = build_free(PER_PLUS, 8)
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
        discs = report.ordered_discs
        assert discs == tuple(sorted(discs, key=lambda n: (abs(n), n)))
        assert all(abs(n) > N for n in discs)
        assert max(abs(n) for n in discs) <= 10
        assert report.N_used == N
        assert report.K_used == 32
        assert all(report.ranks[n] == 2 for n in discs)
        cums = report.cumulative
        assert all(b >= a for a, b in zip(cums, cums[1:]))
        assert report.tail_sum == pytest.approx(
            sum(d * d for d in report.per_n.values())
        )

    def test_free_potential_deviations_vanish(self):
        zero = PotentialSpec.zero()
        op = build_operator(zero, DIRICHLET, 16)
        report = deviation_report(op, 1, find_threshold_n(zero, DIRICHLET, 16), max_disc=6)
        assert report.tail_sum < 1e-20

    def test_deviations_decay_outward(self):
        spec = random_potential(2, norm=0.3)
        N = find_threshold_n(spec, PER_PLUS, 64)
        report = deviation_report(build_operator(spec, PER_PLUS, 64), N, N)
        inner = report.per_n[report.ordered_discs[0]]
        outer = report.per_n[report.ordered_discs[-1]]
        assert outer < inner


class TestLocalization:
    def test_constant_potential_counts(self):
        counts = localization_counts(build_operator(CONST, PER_PLUS, 16))
        assert counts[0] == 0  # +-1 sit a full unit away from the center
        for n in (-8, -6, -4, -2, 2, 4, 6, 8):
            assert counts[n] == 2

    def test_free_counts(self):
        counts = localization_counts(build_operator(PotentialSpec.zero(), DIRICHLET, 8))
        assert all(v == 1 for v in counts.values())
        assert sorted(counts) == list(range(-4, 5))
