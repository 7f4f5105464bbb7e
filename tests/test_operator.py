"""Truncation lattices, free/coupling matrices, and quadruple classification."""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg

import diracproj.operator as operator_module
from diracproj.cli import load_potential_file
from diracproj.operator import (
    BasisIndexSet,
    EigenResidualError,
    OperatorMatrix,
    build_operator,
    build_v,
    classify_bc,
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
    PotentialSpec,
    dirichlet_w,
    random_potential,
)
from diracproj.projections import SPECTRAL_COND_LIMIT
from helpers import traced_peak, zero_potential

# the canonical coupling quadruple (a, b, c, d) of each named bc
BC_QUADRUPLES = {PER_PLUS: (0, -1, -1, 0), PER_MINUS: (0, 1, 1, 0), DIRICHLET: (-1, 0, 0, -1)}


def _per_entry_coupling(spec, bc, K):
    """Coupling matrix filled one entry at a time from the coefficient maps."""
    basis = BasisIndexSet(bc, K)
    ns = lattice_points(bc, K)
    entries = np.zeros((basis.dim, basis.dim), dtype=complex)
    for k in ns:
        for n in ns:
            if bc == DIRICHLET:
                entries[basis.position(k, 0), basis.position(n, 0)] = dirichlet_w(spec, k + n)
            else:
                entries[basis.position(k, 2), basis.position(n, 1)] = spec.q(k + n)
                entries[basis.position(k, 1), basis.position(n, 2)] = spec.p(-k - n)
    return entries


def _structured_potential(kind, seed):
    """random_potential(seed, max_mode=5) made P-only, Q-only, real-valued,
    constant or scaled by a large complex factor ("random" leaves it)."""
    v = random_potential(seed, max_mode=5)
    p = {m: c for m, c in (*v.p_even.items(), *v.p_odd.items())}
    q = {m: c for m, c in (*v.q_even.items(), *v.q_odd.items())}
    if kind == "P-only":
        q = {}
    elif kind == "Q-only":
        p = {}
    elif kind == "real":  # c(-m) = conj(c(m)) for both P and Q
        p, q = ({m: (c.get(m, 0) + np.conj(c.get(-m, 0))) / 2 for m in range(-5, 6)} for c in (p, q))
    elif kind == "constant":
        p, q = {0: p[0]}, {0: q[0]}
    elif kind == "scaled":
        return v.scaled(300 - 40j)
    return PotentialSpec.from_coefficients(p, q, v.max_mode)


class TestLattices:
    def test_lattice_points(self):
        assert lattice_points(PER_PLUS, 1) == (-2, 0, 2)
        assert lattice_points(PER_MINUS, 0) == (-1, 1)
        assert lattice_points(PER_MINUS, 1) == (-3, -1, 1, 3)
        assert lattice_points(DIRICHLET, 2) == (-2, -1, 0, 1, 2)

    def test_disc_centers(self):
        assert disc_centers(PER_PLUS, 5) == (-4, -2, 0, 2, 4)
        assert disc_centers(PER_MINUS, 5) == (-5, -3, -1, 1, 3, 5)
        assert disc_centers(DIRICHLET, 2.5) == (-2, -1, 0, 1, 2)

    @pytest.mark.parametrize("bc", [PER_PLUS, PER_MINUS, DIRICHLET])
    def test_disc_centers_match_the_lattice_filter(self, bc):
        # the range arithmetic against the filter over the whole lattice,
        # on integer, half-integer, fractional, zero and negative limits
        for limit in [*range(-3, 40), *np.arange(-3.0, 40.0, 0.25).tolist(), 64.0, 127.5, 1e-9]:
            lattice = lattice_points(bc, max(math.ceil(limit), 0))
            want = tuple(n for n in lattice if abs(n) <= limit)
            got = disc_centers(bc, limit)
            assert got == want and all(type(n) is int for n in got), (bc, limit)

    def test_dimensions_at_k64(self):
        assert BasisIndexSet(PER_PLUS, 64).dim == 258
        assert BasisIndexSet(PER_MINUS, 64).dim == 260
        assert BasisIndexSet(DIRICHLET, 64).dim == 129

    def test_index_order_and_position(self):
        basis = BasisIndexSet(PER_PLUS, 1)
        assert basis.indices == ((-2, 1), (-2, 2), (0, 1), (0, 2), (2, 1), (2, 2))
        assert basis.position(0, 2) == 3
        with pytest.raises(KeyError):
            basis.position(1, 1)
        with pytest.raises(KeyError):
            basis.position(0, 0)

    def test_dirichlet_single_channel(self):
        basis = BasisIndexSet(DIRICHLET, 1)
        assert basis.indices == ((-1, 0), (0, 0), (1, 0))

    def test_trusted_limit(self):
        assert BasisIndexSet(PER_PLUS, 64).trusted_limit == 32

    def test_construction_refuses_bad_bc_and_K(self):
        with pytest.raises(ValueError, match="unknown boundary condition tag 'bogus'"):
            BasisIndexSet("bogus", 8)
        with pytest.raises(ValueError, match="K must be nonnegative"):
            BasisIndexSet(PER_PLUS, -1)


class TestFreeOperator:
    def test_per_plus_diagonal(self):
        op = build_operator(zero_potential(), PER_PLUS, 1)
        dense = op.dense()
        assert np.array_equal(dense, np.diag(np.diag(dense)))
        assert np.allclose(np.diag(dense).real, [-2, -2, 0, 0, 2, 2])

    def test_per_minus_diagonal(self):
        op = build_operator(zero_potential(), PER_MINUS, 0)
        assert np.allclose(np.diag(op.dense()).real, [-1, -1, 1, 1])

    def test_dirichlet_diagonal(self):
        op = build_operator(zero_potential(), DIRICHLET, 1)
        assert np.allclose(np.diag(op.dense()).real, [-1, 0, 1])

    def test_eigen_of_diagonal(self):
        op = build_operator(zero_potential(), PER_PLUS, 2)
        vals, vecs = eigen(op)
        assert np.allclose(vals.real, [-4, -4, -2, -2, 0, 0, 2, 2, 4, 4])
        assert np.allclose(vecs @ vecs.conj().T, np.eye(op.dim))
        assert eigenbasis_condition(op) == pytest.approx(1.0)

    @pytest.mark.parametrize("bc", [PER_PLUS, PER_MINUS, DIRICHLET])
    @pytest.mark.parametrize("K", [0, 1, 8, 64])
    def test_free_eigen_is_exact(self, bc, K):
        # LAPACK returns the diagonal and the identity bit for bit, already sorted
        op = build_operator(zero_potential(), bc, K)
        vals, vecs = eigen(op)
        assert np.array_equal(vals, np.sort_complex(np.diagonal(op.dense())))
        assert np.array_equal(vecs, np.eye(op.dim))


class TestEigenbasisCondition:
    def test_singular_basis_reads_as_infinite(self):
        # two equal columns of the identity: zgetrf, on V^T, meets an exact zero pivot (info > 0)
        op = build_operator(zero_potential(), DIRICHLET, 4)
        vals, vecs = eigen(op)
        vecs = vecs.copy()
        vecs[:, 1] = vecs[:, 0]
        op._aux_cache["eig"] = (vals, vecs)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            eigenbasis_inverse(op)
        assert eigenbasis_condition(op) == np.inf

    @pytest.mark.parametrize("bc", [PER_PLUS, DIRICHLET])
    def test_inverse_matches_numpy(self, bc):
        # zgetrf and zgetri on V^T, in place in scipy's LAPACK, against numpy's inv
        op = build_operator(random_potential(0), bc, 32)
        got, want = eigenbasis_inverse(op), np.linalg.inv(eigen(op)[1])
        assert got.flags.c_contiguous
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("workload", ["spectral", "defective"])
    def test_condition_estimate_keeps_benchmark_routes(self, benchmark_cases, workload):
        # the 1-norm estimate and the SVD condition number put every operator
        # the benchmark builds (seeds 0-9) on the same side of the route limit
        for path, bc, K in benchmark_cases(workload, range(10)):
            op = build_operator(load_potential_file(path), bc, K)
            exact = float(np.linalg.cond(eigen(op)[1]))
            assert (exact > SPECTRAL_COND_LIMIT) == (eigenbasis_condition(op) > SPECTRAL_COND_LIMIT), (path, bc, K)


class TestCouplingMatrix:
    def test_periodic_placement(self):
        # single mode p(2) = 1: channel-2 column n lands on channel-1 row -n-2
        spec = PotentialSpec(p_even={2: 1.0}, q_even={}, p_odd={}, q_odd={}, max_mode=2)
        v = build_v(spec, PER_PLUS, 2)
        b, dense = v.basis, v.dense()
        got = {
            (row, col)
            for row in b.indices
            for col in b.indices
            if dense[b.position(*row), b.position(*col)] != 0
        }
        want = {((-n - 2, 1), (n, 2)) for n in (-4, -2, 0, 2)}
        assert got == want
        assert v.hs_norm == pytest.approx(2.0)

    def test_periodic_matches_multiplication_galerkin(self):
        # independent oracle: matrix elements of f -> v f against the basis,
        # by discrete quadrature (exact, all frequencies even)
        rng = np.random.default_rng(3)
        tables = {}
        for name in ("p", "q"):
            tables[name] = {m: complex(*rng.standard_normal(2)) for m in (-2, 0, 2)}
        spec = PotentialSpec(p_even=tables["p"], q_even=tables["q"], p_odd={}, q_odd={}, max_mode=2)
        K = 3
        v = build_v(spec, PER_PLUS, K)
        b, dense = v.basis, v.dense()
        x = np.arange(512) * (np.pi / 512)
        P = sum(c * np.exp(1j * m * x) for m, c in tables["p"].items())
        Q = sum(c * np.exp(1j * m * x) for m, c in tables["q"].items())

        def field(n, ch):
            if ch == 1:
                return np.exp(-1j * n * x), np.zeros_like(x, dtype=complex)
            return np.zeros_like(x, dtype=complex), np.exp(1j * n * x)

        for col in b.indices:
            f1, f2 = field(*col)
            g1, g2 = P * f2, Q * f1
            for row in b.indices:
                h1, h2 = field(*row)
                want = np.mean(g1 * h1.conj() + g2 * h2.conj())
                got = dense[b.position(*row), b.position(*col)]
                assert got == pytest.approx(want, abs=1e-12)

    def test_dirichlet_symmetrized_coupling(self):
        spec = PotentialSpec(p_even={2: 1.0}, q_even={-2: 2j}, p_odd={1: 0.5}, q_odd={}, max_mode=2)
        v = build_v(spec, DIRICHLET, 3)
        b, dense = v.basis, v.dense()

        def w(m):
            return (spec.p(-m) + spec.q(m)) / 2

        for row in b.indices:
            for col in b.indices:
                assert dense[b.position(*row), b.position(*col)] == pytest.approx(
                    w(row[0] + col[0]), abs=1e-15
                )

    @pytest.mark.parametrize("bc", (PER_PLUS, PER_MINUS, DIRICHLET))
    @pytest.mark.parametrize("max_mode", (7, 8))
    def test_table_lookup_matches_per_entry_fill(self, bc, max_mode):
        spec = random_potential(11, max_mode=max_mode)
        for K in (0, 1, 3, 8, 32, 128):
            want = _per_entry_coupling(spec, bc, K)
            assert np.array_equal(build_v(spec, bc, K).dense(), want), K

    @pytest.mark.parametrize("bc", (PER_PLUS, PER_MINUS, DIRICHLET))
    def test_huge_max_mode_reads_only_reachable_modes(self, bc):
        tables = {"p_even": {2: 1.0}, "q_even": {0: 1j}, "p_odd": {1: 0.5}, "q_odd": {}}
        huge = PotentialSpec(**tables, max_mode=10**12)
        want = build_v(PotentialSpec(**tables, max_mode=2), bc, 8).dense()
        assert np.array_equal(build_v(huge, bc, 8).dense(), want)

    @pytest.mark.parametrize("bc", (PER_PLUS, PER_MINUS, DIRICHLET))
    @pytest.mark.parametrize("kind", ["P-only", "Q-only", "real", "constant", "scaled", "random"])
    def test_channel_swap_makes_operator_complex_symmetric(self, bc, kind):
        # the Schur projection route takes left invariant subspaces from this symmetry, so it must be exact
        for seed, K in itertools.product(range(3), (0, 1, 8, 64)):
            spec = _structured_potential(kind, seed)
            op = build_operator(spec, bc, K)
            swap = op.basis.swap
            swapped = op.dense()[swap]
            assert np.array_equal(swapped, swapped.T), (seed, K)
            assert np.array_equal(swap[swap], np.arange(op.dim))
            pairs = [(op.basis.indices[i], op.basis.indices[j]) for i, j in enumerate(swap)]
            assert all(a[0] == b[0] and (a[1] != b[1] or bc == DIRICHLET) for a, b in pairs)

    def test_build_operator_is_sum(self):
        # build_operator adds the free diagonal onto the coupling in place
        tiny = PotentialSpec(p_even={2: 1.0}, q_even={0: 1j}, p_odd={}, q_odd={}, max_mode=2)
        cases = [(tiny, 4), (random_potential(0), 128)]
        for (spec, K), bc in itertools.product(cases, (PER_PLUS, PER_MINUS, DIRICHLET)):
            op = build_operator(spec, bc, K)
            free = build_operator(zero_potential(), bc, K)
            v = build_v(spec, bc, K)
            assert np.array_equal(op.dense(), free.dense() + v.dense())


class TestMemory:
    """L is held as its nonzeros; the dense matrix is only ever LAPACK's scratch input."""

    def test_nonzeros_are_summed_sorted_and_checked(self):
        basis = BasisIndexSet(DIRICHLET, 1)
        op = OperatorMatrix(basis, [2, 0, 1, 2, 1], [0, 1, 1, 0, 2], [1j, 2.0, 3.0, -1j, 0.0])
        # (2, 0) sums to zero and (1, 2) is zero: both are dropped
        assert (op.rows.tolist(), op.cols.tolist(), op.values.tolist()) == ([0, 1], [1, 1], [2, 3])
        assert op.dense().flags.f_contiguous and op.dense() is not op.dense()
        for rows, cols in (([3], [0]), ([0], [-1])):
            with pytest.raises(ValueError, match="must lie in the 3 x 3 matrix"):
                OperatorMatrix(basis, rows, cols, [1.0])

    @pytest.mark.parametrize("bc", [PER_PLUS, PER_MINUS, DIRICHLET])
    def test_operator_holds_no_dense_array(self, bc):
        op = build_operator(random_potential(0), bc, 64)
        held = [value for value in vars(op).values() if isinstance(value, np.ndarray)]
        assert held and all(array.size < op.dim**2 for array in held)

    def test_eigendecomposition_peak(self):
        # from a fresh operator through eigen, the condition number and V^-1, no step
        # holds more than zgeev itself: L, the eigenvectors and its workspace, 2.6
        # dim x dim complex matrices here; the inverse holds V, V^-1 and zgetri's workspace
        spec = random_potential(0)
        zgeev = traced_peak(spec, PER_PLUS, 64, lambda op: scipy.linalg.eig(op.dense(), overwrite_a=True))
        steps = (eigen, eigenbasis_condition, eigenbasis_inverse)
        whole = traced_peak(spec, PER_PLUS, 64, lambda op: [step(op) for step in steps])
        assert whole <= zgeev + 0.02


class TestEigen:
    def test_selfadjoint_coupling_gives_real_spectrum(self):
        # v Hermitian pointwise iff q(m) = conj(p(-m))
        spec = PotentialSpec(p_even={2: 1 + 1j}, q_even={-2: 1 - 1j}, p_odd={}, q_odd={}, max_mode=2)
        op = build_operator(spec, PER_PLUS, 8)
        vals, vecs = eigen(op)
        assert np.max(np.abs(vals.imag)) < 1e-10
        assert np.all(np.diff(vals.real) > -1e-12)
        norms = np.linalg.norm(vecs, axis=0)
        assert np.allclose(norms, 1.0)

    def test_eigen_residual(self):
        spec = PotentialSpec(p_even={2: 2.0}, q_even={0: 1j}, p_odd={}, q_odd={}, max_mode=2)
        op = build_operator(spec, PER_MINUS, 8)
        vals, vecs = eigen(op)
        residual = np.linalg.norm(op.dense() @ vecs - vecs * vals)
        assert residual < 1e-10 * max(op.hs_norm, 1.0)

    def test_refuses_overflowing_hs_norm(self):
        # sum |c|^2 is finite, but each coefficient fills a Hankel block, so
        # ||L||_HS overflows and a residual gate relative to it would be void
        spec = PotentialSpec(p_even={2: 9e153}, q_even={0: 9e153}, p_odd={}, q_odd={}, max_mode=2)
        op = build_operator(spec, PER_PLUS, 32)
        assert op.hs_norm == math.inf
        with pytest.raises(EigenResidualError, match=r"\|\|L\|\|_HS = inf"):
            eigen(op)

    def test_nan_residual_fails_the_gate(self, monkeypatch):
        op = build_operator(random_potential(0), PER_PLUS, 8)
        vals, vecs = operator_module.scipy.linalg.eig(op.dense())
        vals[3] = np.nan  # a comparison with NaN is false, so "residual > bound" let it through
        monkeypatch.setattr(operator_module.scipy.linalg, "eig", lambda a, **kwargs: (vals, vecs))
        with pytest.raises(EigenResidualError, match="nan"):
            eigen(op)

    def test_eigen_cached(self):
        op = build_operator(zero_potential(), DIRICHLET, 8)
        assert eigen(op)[0] is eigen(op)[0]


class TestClassification:
    def test_periodic_regular_not_strict(self):
        res = classify_bc(*BC_QUADRUPLES[PER_PLUS])
        assert res.regular and not res.strictly_regular
        assert res.roots[0] == pytest.approx(res.roots[1])
        assert res.roots[0] == pytest.approx(1.0)

    def test_antiperiodic_regular_not_strict(self):
        res = classify_bc(*BC_QUADRUPLES[PER_MINUS])
        assert res.regular and not res.strictly_regular
        assert res.roots[0] == pytest.approx(-1.0)

    def test_dirichlet_strictly_regular(self):
        res = classify_bc(*BC_QUADRUPLES[DIRICHLET])
        assert res.regular and res.strictly_regular
        assert sorted(z.real for z in res.roots) == pytest.approx([-1.0, 1.0])

    def test_degenerate_quadruple(self):
        res = classify_bc(0, 0, 0, 0)
        assert not res.regular
        assert not res.strictly_regular

    def test_discriminant_identity(self):
        # (b+c)^2 - 4(bc - ad) == (b-c)^2 + 4ad
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b, c, d = (complex(*rng.standard_normal(2)) for _ in range(4))
            res = classify_bc(a, b, c, d)
            assert res.discriminant == pytest.approx((b - c) ** 2 + 4 * a * d)

    def test_strictly_regular_roots_distinct(self):
        rng = np.random.default_rng(2)
        seen = 0
        for _ in range(200):
            a, b, c, d = (complex(*rng.standard_normal(2)) for _ in range(4))
            res = classify_bc(a, b, c, d)
            if res.strictly_regular:
                seen += 1
                assert abs(res.roots[0] - res.roots[1]) > 1e-10
        assert seen > 150  # generic quadruples are strictly regular

    def test_roots_solve_quadratic(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b, c, d = (complex(*rng.standard_normal(2)) for _ in range(4))
            res = classify_bc(a, b, c, d)
            det = b * c - a * d
            for z in res.roots:
                assert z * z + (b + c) * z + det == pytest.approx(0, abs=1e-9)
