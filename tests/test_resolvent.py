"""Branch choice, shifted solves, and the off-diagonal smallness test."""

import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from diracproj.operator import (
    BasisIndexSet,
    OperatorMatrix,
    basis_index_set,
    build_operator,
    build_v,
    disc_centers,
    lattice_points,
)
from diracproj.potential import (
    DIRICHLET,
    PER_MINUS,
    PER_PLUS,
    BC_TAGS,
    PotentialSpec,
    dirichlet_w,
    r_sequence,
    random_potential,
    validate_bc,
)
from diracproj import resolvent
from diracproj.resolvent import (
    CIRCLE_PEAKS,
    SCAN_BLOCK_FLOATS,
    IllConditionedError,
    ShiftedSolve,
    ThresholdNotFoundError,
    _antidiagonal_weights,
    _circle_double_sums,
    circle_norm_profile,
    find_threshold_n,
    threshold_from_profile,
)
from helpers import STRUCTURED, circle_samples, structured_potential, zero_potential


# One-point oracles for the broadcast smallness kernel: the lattice double
# sum at a single lambda, one anti-diagonal at a time.

def _lattice_double_sum(weights: dict[int, float], lat: np.ndarray, lam: complex) -> float:
    gaps = np.abs(lam - lat)
    if np.any(gaps == 0):
        raise ValueError(f"lambda = {lam} lies on the free lattice")
    inv = 1.0 / gaps
    lo, hi = int(lat[0]), int(lat[-1])
    total = 0.0
    # partners j - i stay on the lattice automatically: j carries
    # coefficient mass only when it has the right parity
    for j, w in weights.items():
        if w == 0.0:
            continue
        partners = j - lat
        mask = (partners >= lo) & (partners <= hi)
        if not np.any(mask):
            continue
        inv_partner = 1.0 / np.abs(lam - partners[mask])
        total += w * float(np.dot(inv[mask], inv_partner))
    return total


def kvk_hs_norm(spec: PotentialSpec, bc: str, lam: complex, K: int) -> float:
    """HS norm of K V K on the size-K truncation, by lattice sums alone."""
    validate_bc(bc)
    lat = np.array(lattice_points(bc, K), dtype=float)
    return float(np.sqrt(_lattice_double_sum(_antidiagonal_weights(spec, bc), lat, complex(lam))))


def dominated_hs_norm(spec: PotentialSpec, bc: str, lam: complex, K: int) -> float:
    """Same double sum with the dominating envelope r in place of p, q.

    Always >= kvk_hs_norm for the same arguments, since
    r(j)^2 >= |q(j)|^2 + |p(-j)|^2 pointwise.
    """
    validate_bc(bc)
    r = r_sequence(spec, bc)
    weights = {j: v * v for j, v in r.values.items()}
    lat = np.array(lattice_points(bc, K), dtype=float)
    return float(np.sqrt(_lattice_double_sum(weights, lat, complex(lam))))


# The diagonal square root K of the free resolvent and a one-shot shifted
# solve, built explicitly: the dense oracles for the lattice double sums.

def branch_sqrt(z):
    """Principal square root with the argument taken in [-pi, pi).

    Differs from the numpy convention only on the negative real axis, which
    gets argument -pi (so its square root sits on the negative imaginary
    axis).  Accepts scalars or arrays.
    """
    z = np.asarray(z, dtype=complex)
    phi = np.angle(z)
    phi = np.where(phi == np.pi, -np.pi, phi)
    out = np.sqrt(np.abs(z)) * np.exp(0.5j * phi)
    if out.ndim == 0:
        return complex(out)
    return out


@dataclass(frozen=True)
class KOperator:
    """Diagonal square root of the free resolvent on one truncation."""

    basis: BasisIndexSet
    lam: complex
    diag: np.ndarray

    def as_matrix(self) -> np.ndarray:
        return np.diag(self.diag)


def k_operator(basis: BasisIndexSet, lam: complex) -> KOperator:
    lam = complex(lam)
    free = basis.free_diagonal()
    gaps = lam - free
    if np.any(gaps == 0):
        raise ValueError(f"lambda = {lam} is a free eigenvalue of the {basis.bc} truncation")
    return KOperator(basis, lam, 1.0 / branch_sqrt(gaps))


def resolve(op: OperatorMatrix, lam: complex, rhs: np.ndarray) -> np.ndarray:
    """Apply (lambda - L)^{-1} to one vector or a stack of columns."""
    return ShiftedSolve(op, lam).solve(rhs)


class TestBranchSqrt:
    def test_positive_real(self):
        assert branch_sqrt(4.0) == pytest.approx(2.0)

    def test_negative_real_goes_below(self):
        # argument -pi, not +pi: sqrt lands on the negative imaginary axis
        assert branch_sqrt(-4.0) == pytest.approx(-2j)
        assert branch_sqrt(-0.25) == pytest.approx(-0.5j)

    def test_matches_numpy_off_the_cut(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        assert np.allclose(branch_sqrt(z), np.sqrt(z))

    def test_square_recovers_input(self):
        for z in (-4.0, -1e-8, 2.0 + 3j, -2.0 - 3j, 1j):
            assert branch_sqrt(z) ** 2 == pytest.approx(z, rel=1e-14)

    def test_array_shape(self):
        out = branch_sqrt(np.array([[-1.0, 1.0]]))
        assert out.shape == (1, 2)
        assert out[0, 0] == pytest.approx(-1j)


class TestKOperator:
    def test_half_gap_values(self):
        basis = basis_index_set(DIRICHLET, 4)
        below = k_operator(basis, 2 - 0.5)  # lambda - n = -1/2 at n = 2
        i2 = basis.position(2, 0)
        assert below.diag[i2] == pytest.approx(1j * math.sqrt(2))
        above = k_operator(basis, 2 + 0.5)
        assert above.diag[i2] == pytest.approx(math.sqrt(2))

    def test_square_is_free_resolvent(self):
        basis = basis_index_set(PER_PLUS, 8)
        lam = 1.0 + 0.3j
        k = k_operator(basis, lam)
        free = basis.free_diagonal()
        assert np.max(np.abs(k.diag**2 - 1.0 / (lam - free))) < 1e-14

    def test_rejects_free_eigenvalue(self):
        basis = basis_index_set(DIRICHLET, 8)
        with pytest.raises(ValueError):
            k_operator(basis, 3.0)

    def test_as_matrix_diagonal(self):
        basis = basis_index_set(PER_MINUS, 2)
        k = k_operator(basis, 0.25)
        m = k.as_matrix()
        assert np.array_equal(np.diag(np.diag(m)), m)


class TestShiftedSolve:
    def test_free_dirichlet_scalar_case(self):
        op = build_operator(zero_potential(), DIRICHLET, 4)
        rhs = np.zeros(op.dim, dtype=complex)
        rhs[op.basis.position(0, 0)] = 1.0
        out = resolve(op, 0.5, rhs)
        assert out[op.basis.position(0, 0)] == pytest.approx(2.0)
        assert np.linalg.norm(out) == pytest.approx(2.0)

    def test_solve_inverts_shift(self):
        spec = random_potential(1, norm=0.8)
        op = build_operator(spec, PER_MINUS, 8)
        lam = 0.3 + 0.4j
        rng = np.random.default_rng(5)
        rhs = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        x = resolve(op, lam, rhs)
        back = lam * x - op.dense() @ x
        assert np.linalg.norm(back - rhs) < 1e-10 * np.linalg.norm(rhs)

    def test_factorized_route_matches_lu(self):
        # (lambda - L)^{-1} == K (I - KVK)^{-1} K, exactly, any branch
        spec = random_potential(2, norm=0.5)
        op = build_operator(spec, PER_PLUS, 8)
        lam = 1.0 + 0.5j
        k = k_operator(op.basis, lam).as_matrix()
        v = build_v(spec, PER_PLUS, 8).dense()
        middle = np.linalg.inv(np.eye(op.dim) - k @ v @ k)
        factored = k @ middle @ k
        direct = resolve(op, lam, np.eye(op.dim, dtype=complex))
        assert np.max(np.abs(factored - direct)) < 1e-9

    def test_near_eigenvalue_refused(self):
        op = build_operator(zero_potential(), DIRICHLET, 8)
        with pytest.raises(IllConditionedError) as err:
            ShiftedSolve(op, 1e-14)
        assert "nearest eigenvalue" in str(err.value)

    def test_condition_estimate_recorded(self):
        op = build_operator(zero_potential(), DIRICHLET, 8)
        s = ShiftedSolve(op, 0.5)
        assert 1.0 < s.condition_estimate < 1e4


class TestKvkNorm:
    def test_hand_expanded_single_mode(self):
        # per+ K=1, p(2)=1: two coupled pairs, ||KVK||^2 = 2/(|l| |l+2|)
        spec = PotentialSpec(p_even={2: 1.0}, q_even={}, p_odd={}, q_odd={}, max_mode=2)
        lam = 1 + 1j
        want = math.sqrt(2.0 / (abs(lam) * abs(lam + 2)))
        assert kvk_hs_norm(spec, PER_PLUS, lam, 1) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("bc", BC_TAGS)
    def test_matches_dense_matrix(self, bc):
        spec = random_potential(7, max_mode=4)
        K = 8
        lam = 2.3 + 0.7j
        basis = basis_index_set(bc, K)
        k = k_operator(basis, lam).as_matrix()
        v = build_v(spec, bc, K).dense()
        dense = float(np.linalg.norm(k @ v @ k))
        assert kvk_hs_norm(spec, bc, lam, K) == pytest.approx(dense, rel=1e-10)

    def test_rejects_lattice_lambda(self):
        spec = random_potential(0)
        with pytest.raises(ValueError):
            kvk_hs_norm(spec, PER_PLUS, 2.0, 8)

    @pytest.mark.parametrize("bc", BC_TAGS)
    def test_dominated_route_dominates(self, bc):
        for seed in range(4):
            spec = random_potential(seed)
            for lam in (4.5, 6.5 + 0.5j, -8.5):
                small = kvk_hs_norm(spec, bc, lam, 16)
                big = dominated_hs_norm(spec, bc, lam, 16)
                assert big >= small - 1e-12

    def test_dominated_matches_dense_envelope_matrix(self):
        # independent route: build the dense coupling matrix of the envelope
        # itself (entries r(row+col)) and take Frobenius of K R K
        spec = random_potential(9, max_mode=4)
        r = r_sequence(spec, DIRICHLET)
        K = 8
        lam = 3.4 + 0.2j
        basis = basis_index_set(DIRICHLET, K)
        k = k_operator(basis, lam).as_matrix()
        dense = np.zeros((basis.dim, basis.dim))
        for i, (n, _) in enumerate(basis.indices):
            for j, (m, _) in enumerate(basis.indices):
                dense[i, j] = r(n + m)
        want = float(np.linalg.norm(k @ dense @ k))
        assert dominated_hs_norm(spec, DIRICHLET, lam, K) == pytest.approx(want, rel=1e-10)


class TestCircleSampling:
    def test_samples_on_circle(self):
        pts = circle_samples(3.0, 0.5, 16)
        assert pts.shape == (16,)
        assert np.allclose(np.abs(pts - 3.0), 0.5)
        assert len(np.unique(np.round(pts, 12))) == 16

    def test_profile_keys_and_zero_potential(self):
        profile = circle_norm_profile(zero_potential(), PER_PLUS, 16)
        assert sorted(profile) == [-8, -6, -4, -2, 2, 4, 6, 8]
        assert all(v == 0.0 for v in profile.values())

    @pytest.mark.parametrize("bc", BC_TAGS)
    @pytest.mark.parametrize("kind", ["zero", *STRUCTURED])
    def test_profile_matches_per_sample_oracle(self, bc, kind):
        # the two-point kernel against the one-point lattice sum on a 12-point
        # grid, which holds n +- 1/2; only the summation order differs, hence
        # 1e-12 relative.  The odd grids miss theta = pi and stay below.
        spec = structured_potential(kind)
        K = 24
        profile = circle_norm_profile(spec, bc, K)
        centers = [n for n in lattice_points(bc, K) if 0 < abs(n) <= K / 2]
        assert list(profile) == centers
        for n in centers:
            want = max(kvk_hs_norm(spec, bc, lam, K) for lam in circle_samples(n, 0.5, 12))
            if want == 0.0:
                assert profile[n] == 0.0, (bc, kind, n)
            else:
                assert abs(profile[n] - want) <= 1e-12 * want, (bc, kind, n)
            for count in (15, 9):
                odd = max(kvk_hs_norm(spec, bc, lam, K) for lam in circle_samples(n, 0.5, count))
                assert profile[n] >= odd * (1 - 1e-12), (bc, kind, n, count)

    def test_profile_rejects_few_samples(self):
        # the scan takes no sample count: it reads the circle at n +- 1/2 alone
        with pytest.raises(TypeError):
            circle_norm_profile(zero_potential(), PER_PLUS, 16, samples_per_circle=2)
        with pytest.raises(TypeError):
            circle_norm_profile(zero_potential(), PER_PLUS, 16, 16)
        assert CIRCLE_PEAKS.tolist() == [0.5, -0.5]


def _every_mode_weights(spec: PotentialSpec, bc: str) -> dict[int, float]:
    """Anti-diagonal weights on every lattice mode |j| <= max_mode, zeros included."""
    if bc == DIRICHLET:
        return {j: abs(dirichlet_w(spec, j)) ** 2 for j in range(-spec.max_mode, spec.max_mode + 1)}
    top = spec.max_mode - spec.max_mode % 2
    return {j: abs(spec.q(j)) ** 2 + abs(spec.p(-j)) ** 2 for j in range(-top, top + 1, 2)}


def circle_double_sums_unblocked(weights, bc, K, centers, offsets):
    """The smallness scan's double sums at every (disc, point) l = n + z,
    n in `centers` and z in `offsets`, in one broadcast over every disc:
    the body the blocked scan replaced, kept as its oracle.  Given a grid
    of circle_samples, it evaluates the circle's maximand on that grid."""
    lat = np.array(lattice_points(bc, K), dtype=float)
    step = 1 if bc == DIRICHLET else 2
    lams = centers[:, None] + np.asarray(offsets)
    inv = 1.0 / np.abs(lams[:, :, None] - lat)
    rev = inv[:, :, ::-1]
    L = lat.size
    total = np.zeros(lams.shape)
    for j, w in weights.items():
        t = j // step
        if w == 0.0 or abs(t) >= L:
            continue
        if t >= 0:
            total += w * np.einsum("dsi,dsi->ds", inv[:, :, t:], rev[:, :, : L - t])
        else:
            total += w * np.einsum("dsi,dsi->ds", inv[:, :, : L + t], rev[:, :, -t:])
    return total


def grid_profile(spec, bc, K, count):
    """circle_norm_profile's maximum taken over the count-point grid of each
    circle, one disc at a time."""
    weights = _antidiagonal_weights(spec, bc)
    grid = circle_samples(0, 0.5, count)
    centers = [n for n in lattice_points(bc, K) if 0 < abs(n) <= K / 2]
    return {
        n: float(np.sqrt(circle_double_sums_unblocked(weights, bc, K, np.array([n], dtype=float), grid).max()))
        for n in centers
    }


class TestBlockedScan:
    """_circle_double_sums works through blocks of discs; each disc's sums
    are bit for bit those of the one-pass broadcast at the same two points,
    and their maximum is that of an even grid (which holds n +- 1/2) and at
    least that of an odd one."""

    @pytest.mark.parametrize("bc", BC_TAGS)
    @pytest.mark.parametrize("K,samples", [(8, 16), (32, 16), (128, 16), (64, 5)])
    def test_matches_unblocked(self, bc, K, samples):
        weights = _antidiagonal_weights(random_potential(1), bc)
        centers = np.array([n for n in disc_centers(bc, K / 2) if n != 0], dtype=float)
        got = _circle_double_sums(weights, bc, K, centers)
        assert np.array_equal(got, circle_double_sums_unblocked(weights, bc, K, centers, CIRCLE_PEAKS))
        grid = circle_double_sums_unblocked(weights, bc, K, centers, circle_samples(0, 0.5, samples)).max(axis=1)
        if samples % 2 == 0:
            assert np.array_equal(got.max(axis=1), grid)
        else:  # theta = 0 is on every grid; theta = pi on the even ones alone
            assert np.all(got.max(axis=1) >= grid) and np.any(got.max(axis=1) > grid)

    @pytest.mark.parametrize("block_floats", [1, 700, 5000])
    def test_block_edges(self, monkeypatch, block_floats):
        # one disc a block, and blocks that leave a short last one
        monkeypatch.setattr(resolvent, "SCAN_BLOCK_FLOATS", block_floats)
        weights = _antidiagonal_weights(random_potential(2), DIRICHLET)
        centers = np.array([n for n in disc_centers(DIRICHLET, 16) if n != 0], dtype=float)
        want = circle_double_sums_unblocked(weights, DIRICHLET, 32, centers, CIRCLE_PEAKS)
        assert np.array_equal(_circle_double_sums(weights, DIRICHLET, 32, centers), want)

    def test_temporaries_stay_near_one_block(self):
        # dir K = 256: the unblocked broadcast holds 256 x 2 x 513 gaps
        # (2.1 MB of float64); a block's differences, moduli and
        # reciprocals take about three block sizes
        weights = _antidiagonal_weights(random_potential(0), DIRICHLET)
        centers = np.array([n for n in disc_centers(DIRICHLET, 128) if n != 0], dtype=float)
        tracemalloc.start()
        try:
            _circle_double_sums(weights, DIRICHLET, 256, centers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * SCAN_BLOCK_FLOATS


class TestWholeCircle:
    """Each term |l - i|^-1 |l - (j - i)|^-1 is log-convex in cos theta, so
    every disc's maximum over a grid sits at theta = 0 or the point nearest
    theta = pi; for an even count those are n +- 1/2 themselves, the two
    points the scan reads, and its maximum is the whole circle's."""

    SPECS = [*(random_potential(seed) for seed in range(2)), *(structured_potential(kind) for kind in STRUCTURED)]

    @pytest.mark.parametrize("bc", BC_TAGS)
    def test_argmax_at_zero_or_pi(self, bc):
        centers = np.array([n for n in disc_centers(bc, 32) if n != 0], dtype=float)
        for k, spec in enumerate(self.SPECS):
            weights = _antidiagonal_weights(spec, bc)
            sums = circle_double_sums_unblocked(weights, bc, 64, centers, circle_samples(0, 0.5, 16))
            assert set(np.argmax(sums, axis=1).tolist()) <= {0, 8}, k

    @pytest.mark.parametrize("bc", BC_TAGS)
    def test_sixteen_samples_match_4096(self, bc):
        # the two-point profile is the 16- and the 4096-point grids' maximum,
        # and at least the maximum of the odd grids, which miss theta = pi
        for k, spec in enumerate(self.SPECS):
            got = circle_norm_profile(spec, bc, 64)
            for count in (16, 4096):
                want = grid_profile(spec, bc, 64, count)
                assert list(got) == list(want)
                for n, value in got.items():
                    assert abs(value - want[n]) <= 1e-15 * want[n], (k, count, n)
            for count in (15, 9):
                odd = grid_profile(spec, bc, 64, count)
                assert all(value >= odd[n] for n, value in got.items()), (k, count)


class TestStoredModes:
    """Envelope and weights visit the stored modes only, whatever max_mode says."""

    @pytest.mark.parametrize("bc", BC_TAGS)
    def test_huge_max_mode_costs_nothing(self, bc):
        spec = PotentialSpec(p_even={2: 0.5}, q_even={}, p_odd={}, q_odd={}, max_mode=10**6)
        assert set(r_sequence(spec, bc).values) <= {-2, 2}
        assert set(_antidiagonal_weights(spec, bc)) <= {-2, 2}

    @pytest.mark.parametrize("bc", BC_TAGS)
    def test_sums_match_every_mode_enumeration(self, bc):
        # sparse coefficients under a wide max_mode: the dropped modes carry
        # exact zeros, so every sum agrees bitwise with the full enumeration
        spec = PotentialSpec(p_even={-4: 0.3, 2: 0.2j}, q_even={2: 0.1}, p_odd={3: 0.05}, q_odd={-1: 0.2}, max_mode=9)
        full, stored = _every_mode_weights(spec, bc), _antidiagonal_weights(spec, bc)
        assert list(stored) == sorted(stored)
        assert all(full[j] == w for j, w in stored.items())
        assert all(w == 0.0 for j, w in full.items() if j not in stored)
        centers = np.array([n for n in lattice_points(bc, 24) if 0 < abs(n) <= 12], dtype=float)
        assert np.array_equal(_circle_double_sums(full, bc, 24, centers), _circle_double_sums(stored, bc, 24, centers))
        r = r_sequence(spec, bc)
        assert list(r.values) == sorted(r.values)
        every = [r(m) for m in range(-9, 10) if m % r.step == 0]
        assert r.norm_sq == sum(v * v for v in every)
        assert r.support == tuple(m for m in range(-9, 10) if r(m) != 0.0)


class TestThreshold:
    def test_zero_potential(self):
        for bc in BC_TAGS:
            assert find_threshold_n(zero_potential(), bc, 16) == 1

    def test_deterministic(self):
        spec = random_potential(4)
        a = find_threshold_n(spec, DIRICHLET, 64)
        b = find_threshold_n(spec, DIRICHLET, 64)
        assert a == b

    def test_monotone_under_scaling(self):
        # the double sum decays ~ n^{-1/2}, so the cutoff reacts strongly
        # (roughly quartically) to the norm; stay inside the window
        spec = random_potential(6, norm=0.5)
        small = find_threshold_n(spec, PER_PLUS, 64)
        large = find_threshold_n(spec.scaled(2.0), PER_PLUS, 64)
        assert 1 <= small < large <= 32

    def test_tiny_potential_passes_everywhere(self):
        spec = random_potential(8, norm=0.02)
        assert find_threshold_n(spec, PER_MINUS, 32) == 1

    def test_from_profile_hand_built(self):
        assert threshold_from_profile({-2: 0.6, 2: 0.1, -4: 0.2, 4: 0.5}, 8) == 2
        assert threshold_from_profile({-2: 0.1, 2: 0.1}, 4) == 1
        with pytest.raises(ThresholdNotFoundError):
            threshold_from_profile({-2: 0.1, 2: 0.1, 4: 0.51}, 8)

    def test_from_profile_matches_search(self):
        spec = random_potential(6)
        for bc in BC_TAGS:
            profile = circle_norm_profile(spec, bc, 64)
            assert threshold_from_profile(profile, 64) == find_threshold_n(spec, bc, 64)

    def test_huge_potential_exhausts_window(self):
        spec = random_potential(3, norm=50.0)
        with pytest.raises(ThresholdNotFoundError):
            find_threshold_n(spec, PER_PLUS, 16)
