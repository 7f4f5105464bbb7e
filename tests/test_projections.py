"""Contour quadrature, Riesz projections, and deviation reports."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from diracproj import projections
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
    DISC_CHUNK,
    PROXIMITY_TOL,
    SPECTRAL_COND_LIMIT,
    _disc_sweep,
    _filter,
    _free_rows,
    _project,
    _schur_factors,
    _schur_form,
    _spectral_factors,
    _split_deviation,
    default_global_nodes,
    deviation_report,
    global_projection,
    localization_counts,
    riesz_projection,
)
from diracproj.resolvent import CONDITION_LIMIT, IllConditionedError, ShiftedSolve, circle_samples, find_threshold_n

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


def free_matrix(bc, n, K):
    """The dense free projection P_n^0: the coordinate projection onto the basis rows of n."""
    return np.diag([1.0 + 0j if m == n else 0j for m, _ in basis_index_set(bc, K).indices])


def contour_filter(contour, mu):
    """The production filter of one contour: _filter on a batch of one."""
    return _filter(np.array([contour.center]), contour.radius, contour.nodes, mu)[0]


# -- the per-contour pass the batched one replaced, kept as its oracle ----------

def quadrature_spectral(op, contour):
    """Factors (V[:, S] diag(f_S), V^{-1}[S, :]) of one contour."""
    vals, vecs = eigen(op)
    filt = contour_filter(contour, vals)
    keep = np.flatnonzero(np.abs(filt) > FILTER_FLOOR)
    return vecs[:, keep] * filt[keep], eigenbasis_inverse(op)[keep, :]


def quadrature_schur(op, contour):
    """Factors (Z_W Q1 F, [I, -X] Q^H [I, -Y] Z^H) of one contour from the decoupled Schur form."""
    T, Z, w, right, y_norm = _schur_form(op)
    select = np.abs(contour_filter(contour, np.diagonal(T))) > FILTER_FLOOR
    if select[w:].any():
        w, right, y_norm = op.dim, Z.conj().T, 0.0
    TW, Q, _, r, _, _, info = scipy.linalg.lapack.ztrsen(select[:w], T[:w, :w], np.eye(w, dtype=complex), job="N")
    X, scale = np.zeros((r, w - r), dtype=complex), 1.0
    if info == 0 and 0 < r < w:
        X, scale, info = scipy.linalg.lapack.ztrsyl(TW[:r, :r], TW[r:, r:], -TW[:r, r:], isgn=-1)
    norm = math.hypot(1.0, float(np.linalg.norm(X))) * math.hypot(1.0, y_norm)
    if info != 0 or scale < 1.0 or not norm <= CONDITION_LIMIT:
        raise ProjectionQualityError(
            f"Schur route cannot certify the projection (LAPACK info {info}, Sylvester scale {scale}, "
            f"projector norm {norm:.3e} against {CONDITION_LIMIT:.0e})"
        )
    phases = np.exp(2j * np.pi * np.arange(contour.nodes) / contour.nodes)
    shifted = contour_points(contour)[:, None, None] * np.eye(r) - TW[:r, :r]
    filt = (contour.radius / contour.nodes) * np.einsum("j,jab->ab", phases, np.linalg.inv(shifted))
    coupling = Q[:, :r].conj().T - X @ Q[:, r:].conj().T
    return Z[:, :w] @ Q[:, :r] @ filt, coupling @ right


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
        assert np.max(np.abs(contour_filter(c, mu) - want)) <= 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            ContourSpec(0, -1.0, 16)
        with pytest.raises(ValueError):
            ContourSpec(0, 0.5, 15)
        with pytest.raises(ValueError):
            ContourSpec(0, 0.5, 4)


class TestFreeProjection:
    """P_n^0 is the coordinate projection onto the basis rows of n, one per
    channel; the disc sweep finds those rows by index arithmetic (_free_rows)."""

    @pytest.mark.parametrize("bc,rank", [(PER_PLUS, 2), (PER_MINUS, 2), (DIRICHLET, 1)])
    def test_rank_and_diagonal(self, bc, rank):
        n = -3 if bc == PER_MINUS else (2 if bc == PER_PLUS else 1)
        rows = _free_rows(bc, 8, [n])
        assert rows.shape == (1, rank)
        p0 = free_matrix(bc, n, 8)
        assert np.array_equal(np.flatnonzero(np.diag(p0)), rows[0])
        assert np.array_equal(p0, np.diag(np.diag(p0)))

    def test_off_lattice_point_rejected(self):
        with pytest.raises(ValueError):
            _free_rows(PER_PLUS, 8, [3])

    def test_rows_found_by_index_arithmetic(self):
        # both ends of each lattice, against the basis' own positions
        for bc, n, K in [(PER_PLUS, -8, 4), (PER_PLUS, 8, 4), (PER_MINUS, -9, 4), (PER_MINUS, 9, 4), (DIRICHLET, 0, 0)]:
            basis = basis_index_set(bc, K)
            want = [basis.position(n, ch) for ch in ((0,) if bc == DIRICHLET else (1, 2))]
            assert _free_rows(bc, K, [n]).tolist() == [want], (bc, n)
        for bc, n in [(PER_PLUS, 10), (PER_MINUS, -11), (DIRICHLET, 5), (PER_MINUS, 0)]:
            with pytest.raises(ValueError):
                _free_rows(bc, 4, [n])


class TestRieszProjection:
    @pytest.mark.parametrize("bc", BC_TAGS)
    def test_free_case_is_exact(self, bc):
        op = build_operator(PotentialSpec.zero(), bc, 8)
        n = 2 if bc != PER_MINUS else 3
        p = riesz_projection(op, ContourSpec(n, 0.5, 64))
        p0 = free_matrix(bc, n, 8)
        assert np.linalg.norm(p.matrix - p0) < 1e-12
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
        assert np.max(np.abs(a - c.matrix)) == 0.0
        assert c.rank == int(round(np.trace(b).real))

    def test_eigenvalue_on_contour_refused(self):
        op = build_operator(PotentialSpec.zero(), DIRICHLET, 8)
        with pytest.raises(ContourProximityError):
            riesz_projection(op, ContourSpec(0.5, 0.5, 64))

    def test_coarse_quadrature_fails_quality_gate(self):
        op = build_operator(PotentialSpec.zero(), DIRICHLET, 8)
        with pytest.raises(ProjectionQualityError):
            riesz_projection(op, ContourSpec(1, 0.5, 8))

    def test_quality_gate_can_be_disabled(self):
        op = build_operator(PotentialSpec.zero(), DIRICHLET, 8)
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
        first = np.linalg.norm(ps[16].matrix - ps[32].matrix)
        second = np.linalg.norm(ps[32].matrix - ps[64].matrix)
        assert second <= 0.1 * first

    def test_disc_projections_sum_to_identity_free_case(self):
        op = build_operator(PotentialSpec.zero(), PER_PLUS, 8)
        # default nodes target ~1e-8 here (eigenvalues at distance ratio 4/3
        # from the global circle); 256 nodes push that to the fp floor
        total = global_projection(op, 1, nodes=256).matrix.copy()
        for n in range(-16, 17, 2):  # the whole lattice, |n| <= 2K
            if n != 0:
                total += riesz_projection(op, ContourSpec(n, 0.5, 64)).matrix
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
        p = np.matmul(*quadrature_schur(op, contour))
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
    """Whether the contour selects an eigenvalue outside the decoupled window."""
    T, _, w, _, _ = _schur_form(op)
    return bool(np.any(np.abs(contour_filter(contour, np.diagonal(T)))[w:] > FILTER_FLOOR))


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
    """The Schur route decouples a window form once per operator; the
    batched factors must match the per-contour full reorder entrywise."""

    def check(self, op, contours):
        """Contours of one radius and node count, through _schur_factors as one batch."""
        centers = np.array([c.center for c in contours])
        left, right, valid, refusal = _schur_factors(op, centers, contours[0].radius, contours[0].nodes)
        assert refusal is None and len(left) == len(contours)
        form = scipy.linalg.schur(op.entries, output="complex")
        for k, contour in enumerate(contours):
            got = left[k] @ right[k]
            want = np.matmul(*full_reorder_schur(form, contour))
            assert np.max(np.abs(got - want)) <= 1e-13 * np.linalg.norm(want), contour
            selected = np.abs(contour_filter(contour, np.diagonal(form[0]))) > FILTER_FLOOR
            assert np.count_nonzero(valid[k]) == np.count_nonzero(selected)

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

    def test_coupled_triangle(self):
        op = coupled_triangle(1e2)
        assert _schur_form(op)[2] == 2  # 0 and 0.9 lie in the window |z| < 1
        for contour, leaves in [(ContourSpec(0, 0.5, 64), False), (ContourSpec(0.9, 0.3, 64), False),
                                (ContourSpec(2, 0.5, 64), True)]:
            assert _leaves_window(op, contour) == leaves
            self.check(op, [contour])
        # one batch, one contour inside the window and one leaving it
        self.check(op, [ContourSpec(0, 0.5, 64), ContourSpec(2, 0.5, 64)])

    def test_coupling_matches_numpy_product(self):
        # right = Z_W^H - Y Z_R^H is formed in scipy's BLAS; it must equal numpy's product
        op = build_operator(structured_potential(0, 1.0, 0.0), PER_PLUS, 32)
        T, Z, w, right, y_norm = _schur_form(op)
        assert 0 < w < op.dim
        Y, scale, info = scipy.linalg.lapack.ztrsyl(T[:w, :w], T[w:, w:], -T[:w, w:], isgn=-1)
        assert (info, scale, y_norm) == (0, 1.0, np.linalg.norm(Y))
        want = Z[:, :w].conj().T - Y @ Z[:, w:].conj().T
        assert np.max(np.abs(right - want)) <= 1e-14 * (1.0 + y_norm)

    def test_coupling_without_window(self):
        # every eigenvalue lies outside |z| < 1: w = dim, and the empty product Y Z_R^H adds nothing
        entries = np.diag([5.0, 6.0, 7.0]).astype(complex)
        entries[0, 1:] = 1.0
        op = OperatorMatrix(basis_index_set(DIRICHLET, 1), entries)
        T, Z, w, right, y_norm = _schur_form(op)
        assert (w, y_norm) == (op.dim, 0.0)
        assert np.array_equal(right, Z.conj().T)


class TestFilterReach:
    """_filter sums only the values within reach of the contour.  On every
    operator of the benchmark's spectral and defective workloads it keeps the
    eigenvalues the full len(mu) x nodes evaluation keeps, and the spectral
    route's factors are those of the full evaluation, bit for bit."""

    @pytest.mark.parametrize("workload", ["spectral", "defective"])
    def test_keeps_the_full_evaluation_set(self, benchmark_cases, workload):
        for path, bc, K in benchmark_cases(workload, range(3)):
            spec = load_potential_file(path)
            N = find_threshold_n(spec, bc, K)
            op = build_operator(spec, bc, K)
            vals, vecs = eigen(op)
            spectral = eigenbasis_condition(op) <= SPECTRAL_COND_LIMIT
            values = [vals] if spectral else [vals, np.diagonal(_schur_form(op)[0])]
            radius = N + 0.5
            discs = [ContourSpec(n, 0.5, 64) for n in disc_centers(bc, K / 2) if abs(n) > N]
            for batch in (discs, [ContourSpec(0, radius, default_global_nodes(radius))]):
                centers = np.array([c.center for c in batch])
                for mu in values:
                    filt = _filter(centers, batch[0].radius, batch[0].nodes, mu)
                    for k, contour in enumerate(batch):
                        keep = np.flatnonzero(np.abs(full_filter(contour, mu)) > FILTER_FLOOR)
                        assert np.array_equal(np.flatnonzero(np.abs(filt[k]) > FILTER_FLOOR), keep)
                if spectral:
                    # the batch's gathered factors, padding stripped
                    left, right, valid = _spectral_factors(op, centers, batch[0].radius, batch[0].nodes)
                    for k, contour in enumerate(batch):
                        full = full_filter(contour, vals)
                        keep = np.flatnonzero(np.abs(full) > FILTER_FLOOR)
                        assert np.array_equal(left[k][:, valid[k]], vecs[:, keep] * full[keep])
                        assert np.array_equal(right[k][valid[k]], eigenbasis_inverse(op)[keep, :])
                        assert not left[k][:, ~valid[k]].any() and not right[k][~valid[k]].any()


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
            dense = np.linalg.norm(p.matrix - free_matrix(bc, n, 32))
            split = _split_deviation(p.left[None], p.right[None], _free_rows(bc, 32, [n]))[0]
            assert abs(split - dense) <= 1e-13 * dense, n
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
        expansion = disc_expansion(f, op, N, N, 8)
        s = global_projection(op, N)
        assert s.route == route
        assert expansion.report == report  # one sweep over the same window K/2 = 8

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
        assert len(report.discs) > 20
        assert peak < op.dim**2 * 16  # one dense complex P


class TestBatchedPass:
    """The disc sweep and the batched pass against the per-disc loop they
    replaced (oracle_sweep, oracle_projection): ranks exactly, deviations,
    terms and gate values within 1e-13 relative, refusals by the same
    message, on both routes."""

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
        assert len(report.discs) > DISC_CHUNK  # more than one chunk
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
        # the lattice there are fewer to leak to, so the keep sets, padded to
        # the largest in the batch, differ in size
        op = build_operator(random_potential(3, norm=0.3), bc, 32)
        ends = lattice_points(bc, 32)[:2] + lattice_points(bc, 32)[-2:]
        discs = [n for n in disc_centers(bc, 16) if abs(n) > 4] + list(ends)
        contours = [ContourSpec(n, 0.5, nodes) for n in discs]
        batch = _project(op, contours, quality_threshold=None)
        assert batch.route == route
        widths = {np.count_nonzero(np.any(batch.left[k] != 0, axis=0)) for k in range(len(discs))}
        assert len(widths) > 1, widths
        devs = _split_deviation(batch.left, batch.right, _free_rows(bc, 32, discs))
        for k, contour in enumerate(contours):
            left, right, rank, residual, trace, offset = oracle_projection(op, contour, quality_threshold=None)
            assert batch.ranks[k] == rank
            self.close(batch.left[k] @ batch.right[k], left @ right)
            assert batch.residuals[k] == pytest.approx(residual, rel=1e-10)
            assert batch.traces[k] == pytest.approx(trace, rel=1e-13)
            self.close(devs[k], oracle_deviation(left, right, bc, discs[k], 32))

    def test_schur_selection_leaving_the_window(self):
        # radius 1.5 at 64 nodes keeps the neighbouring lattice points; at
        # n = K/2 that reaches past the window, so one batch mixes contours
        # on the window form with one on the whole form
        op = build_operator(structured_potential(0, 1.0, 0.0), PER_PLUS, 32)
        contours = [ContourSpec(n, 1.5, 64) for n in (10, 12, 14, 16)]
        assert [_leaves_window(op, c) for c in contours] == [False, False, False, True]
        batch = _project(op, contours)
        assert batch.route == "schur"
        for k, contour in enumerate(contours):
            left, right, rank, *_ = oracle_projection(op, contour)
            assert batch.ranks[k] == rank == 2
            self.close(batch.left[k] @ batch.right[k], left @ right)

    def test_proximity_refusal_names_the_first_disc(self, route):
        # an eigenvalue at 6.5 sits on the contours of the discs at 6 and 7;
        # in (|n|, n) order the disc at 6 comes first
        diagonal = basis_index_set(DIRICHLET, 16).free_diagonal().astype(complex)
        diagonal[np.flatnonzero(diagonal == 6.0)] = 6.5
        entries = np.diag(diagonal)
        entries[0, 1] = 1e-3  # not diagonal, so the eigendecomposition is a real one
        op = OperatorMatrix(basis_index_set(DIRICHLET, 16), entries)
        with pytest.raises(ContourProximityError) as want:
            oracle_sweep(op, [-3, 3, -4, 4, -5, 5, -6, 6, -7, 7, -8, 8], 0.5, 64, np.ones(op.dim))
        with pytest.raises(ContourProximityError) as got:
            deviation_report(op, 2, 2)
        assert str(got.value) == str(want.value)
        assert "|z - (6+0j)| = 0.5" in str(got.value)

    def test_quality_refusal_matches_the_loop(self, route):
        # 8 nodes leave a free disc's trace off its rank: the first disc is refused
        op = build_operator(PotentialSpec.zero(), DIRICHLET, 16)
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
        op = build_operator(PotentialSpec.zero(), PER_PLUS, 8)
        assert global_projection(op, 1).rank == 2   # circle |z| = 1.5: mode 0 twice
        assert global_projection(op, 2).rank == 6   # |z| = 2.5 adds the discs at +-2
        assert global_projection(op, 0).rank == 2

    def test_rejects_negative(self):
        op = build_operator(PotentialSpec.zero(), PER_PLUS, 8)
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
        zero = PotentialSpec.zero()
        op = build_operator(zero, DIRICHLET, 16)
        report = deviation_report(op, 1, find_threshold_n(zero, DIRICHLET, 16), max_disc=6)
        assert report.tail_sum < 1e-20

    def test_deviations_decay_outward(self):
        spec = random_potential(2, norm=0.3)
        N = find_threshold_n(spec, PER_PLUS, 64)
        report = deviation_report(build_operator(spec, PER_PLUS, 64), N, N)
        inner, outer = report.deviations[0], report.deviations[-1]
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
