"""Truncation lattices, free/coupling matrices, and quadruple classification."""

import itertools
import math

import numpy as np
import pytest

import diracproj.operator as operator_module
from diracproj.cli import load_potential_file
from diracproj.operator import (
    EigenResidualError,
    basis_index_set,
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

# the canonical coupling quadruple (a, b, c, d) of each named bc
BC_QUADRUPLES = {PER_PLUS: (0, -1, -1, 0), PER_MINUS: (0, 1, 1, 0), DIRICHLET: (-1, 0, 0, -1)}


def _per_entry_coupling(spec, bc, K):
    """Coupling matrix filled one entry at a time from the coefficient maps."""
    basis = basis_index_set(bc, K)
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

    def test_dimensions_at_k64(self):
        assert basis_index_set(PER_PLUS, 64).dim == 258
        assert basis_index_set(PER_MINUS, 64).dim == 260
        assert basis_index_set(DIRICHLET, 64).dim == 129

    def test_index_order_and_position(self):
        basis = basis_index_set(PER_PLUS, 1)
        assert basis.indices == ((-2, 1), (-2, 2), (0, 1), (0, 2), (2, 1), (2, 2))
        assert basis.position(0, 2) == 3
        with pytest.raises(KeyError):
            basis.position(1, 1)
        with pytest.raises(KeyError):
            basis.position(0, 0)

    def test_dirichlet_single_channel(self):
        basis = basis_index_set(DIRICHLET, 1)
        assert basis.indices == ((-1, 0), (0, 0), (1, 0))

    def test_trusted_limit(self):
        assert basis_index_set(PER_PLUS, 64).trusted_limit == 32


class TestFreeOperator:
    def test_per_plus_diagonal(self):
        op = build_operator(PotentialSpec.zero(), PER_PLUS, 1)
        assert op.is_diagonal
        assert np.allclose(np.diag(op.entries).real, [-2, -2, 0, 0, 2, 2])

    def test_per_minus_diagonal(self):
        op = build_operator(PotentialSpec.zero(), PER_MINUS, 0)
        assert np.allclose(np.diag(op.entries).real, [-1, -1, 1, 1])

    def test_dirichlet_diagonal(self):
        op = build_operator(PotentialSpec.zero(), DIRICHLET, 1)
        assert np.allclose(np.diag(op.entries).real, [-1, 0, 1])

    def test_eigen_of_diagonal(self):
        op = build_operator(PotentialSpec.zero(), PER_PLUS, 2)
        vals, vecs = eigen(op)
        assert np.allclose(vals.real, [-4, -4, -2, -2, 0, 0, 2, 2, 4, 4])
        assert np.allclose(vecs @ vecs.conj().T, np.eye(op.dim))
        assert eigenbasis_condition(op) == pytest.approx(1.0)


class TestEigenbasisCondition:
    def test_singular_basis_reads_as_infinite(self):
        # two equal columns of the identity: zgesv meets an exact zero pivot (info > 0)
        op = build_operator(PotentialSpec.zero(), DIRICHLET, 4)
        vals, vecs = eigen(op)
        vecs = vecs.copy()
        vecs[:, 1] = vecs[:, 0]
        op._eig_cache = (vals, vecs)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            eigenbasis_inverse(op)
        assert eigenbasis_condition(op) == np.inf

    @pytest.mark.parametrize("bc", [PER_PLUS, DIRICHLET])
    def test_inverse_matches_numpy(self, bc):
        # the same zgesv against the identity as numpy's inv, run in scipy's LAPACK
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
        b = v.basis
        got = {
            (row, col)
            for row in b.indices
            for col in b.indices
            if v.entries[b.position(*row), b.position(*col)] != 0
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
        b = v.basis
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
                got = v.entries[b.position(*row), b.position(*col)]
                assert got == pytest.approx(want, abs=1e-12)

    def test_dirichlet_symmetrized_coupling(self):
        spec = PotentialSpec(p_even={2: 1.0}, q_even={-2: 2j}, p_odd={1: 0.5}, q_odd={}, max_mode=2)
        v = build_v(spec, DIRICHLET, 3)
        b = v.basis

        def w(m):
            return (spec.p(-m) + spec.q(m)) / 2

        for row in b.indices:
            for col in b.indices:
                assert v.entries[b.position(*row), b.position(*col)] == pytest.approx(
                    w(row[0] + col[0]), abs=1e-15
                )

    @pytest.mark.parametrize("bc", (PER_PLUS, PER_MINUS, DIRICHLET))
    @pytest.mark.parametrize("max_mode", (7, 8))
    def test_table_lookup_matches_per_entry_fill(self, bc, max_mode):
        spec = random_potential(11, max_mode=max_mode)
        for K in (0, 1, 3, 8, 32, 128):
            want = _per_entry_coupling(spec, bc, K)
            assert np.array_equal(build_v(spec, bc, K).entries, want), K

    @pytest.mark.parametrize("bc", (PER_PLUS, PER_MINUS, DIRICHLET))
    def test_huge_max_mode_reads_only_reachable_modes(self, bc):
        tables = {"p_even": {2: 1.0}, "q_even": {0: 1j}, "p_odd": {1: 0.5}, "q_odd": {}}
        huge = PotentialSpec(**tables, max_mode=10**12)
        want = build_v(PotentialSpec(**tables, max_mode=2), bc, 8).entries
        assert np.array_equal(build_v(huge, bc, 8).entries, want)

    def test_build_operator_is_sum(self):
        # build_operator adds the free diagonal onto the coupling in place
        tiny = PotentialSpec(p_even={2: 1.0}, q_even={0: 1j}, p_odd={}, q_odd={}, max_mode=2)
        cases = [(tiny, 4), (random_potential(0), 128)]
        for (spec, K), bc in itertools.product(cases, (PER_PLUS, PER_MINUS, DIRICHLET)):
            op = build_operator(spec, bc, K)
            free = build_operator(PotentialSpec.zero(), bc, K)
            v = build_v(spec, bc, K)
            assert np.array_equal(op.entries, free.entries + v.entries)


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
        residual = np.linalg.norm(op.entries @ vecs - vecs * vals)
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
        vals, vecs = operator_module.scipy.linalg.eig(op.entries)
        vals[3] = np.nan  # a comparison with NaN is false, so "residual > bound" let it through
        monkeypatch.setattr(operator_module.scipy.linalg, "eig", lambda a: (vals, vecs))
        with pytest.raises(EigenResidualError, match="nan"):
            eigen(op)

    def test_eigen_cached(self):
        op = build_operator(PotentialSpec.zero(), DIRICHLET, 8)
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
