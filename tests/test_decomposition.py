"""Expansion, reconstruction, and the reordering experiment."""

import math

import numpy as np
import pytest

from diracproj import projections
from diracproj.decomposition import (
    disc_expansion,
    expand,
    reconstruction_curve,
    unconditionality_test,
)
from diracproj.operator import BasisIndexSet, build_operator
from diracproj.potential import (
    BC_TAGS,
    DIRICHLET,
    PER_PLUS,
    random_potential,
)
from diracproj.resolvent import ThresholdNotFoundError, find_threshold_n
from helpers import structured_potential, zero_potential

SQRT2 = math.sqrt(2.0)


def random_vector(basis, seed, max_abs_n=None):
    rng = np.random.default_rng(seed)
    coeffs = {}
    for n, ch in basis.indices:
        if max_abs_n is not None and abs(n) > max_abs_n:
            continue
        coeffs[(n, ch)] = complex(*rng.standard_normal(2))
    return expand(coeffs, basis)


def synthesize(f, basis, x):
    """Both components of the coefficient vector f at the points x, summed over the basis fields."""
    f1 = np.zeros(len(x), dtype=complex)
    f2 = np.zeros(len(x), dtype=complex)
    for (n, ch), c in zip(basis.indices, f):
        if ch == 1:
            f1 += c * np.exp(-1j * n * x)
        elif ch == 2:
            f2 += c * np.exp(1j * n * x)
        else:
            f1 += (c / SQRT2) * np.exp(-1j * n * x)
            f2 += (c / SQRT2) * np.exp(1j * n * x)
    return f1, f2


class TestGridAndVector:
    def test_norm(self):
        # f_norm is the coefficient 2-norm, which Parseval makes the L2 norm
        op = build_operator(zero_potential(), DIRICHLET, 16)
        f = expand({(0, 0): 3.0, (1, 0): 4j}, op.basis)
        assert f.dtype == complex and f.shape == (op.dim,)
        rep = unconditionality_test(disc_expansion(f, op, 1, 1, 8, global_nodes=256), trials=1)
        assert rep.f_norm == pytest.approx(5.0)

    def test_wrong_length_rejected(self):
        op = build_operator(zero_potential(), DIRICHLET, 1)
        with pytest.raises(ValueError, match=r"shape \(5,\), but the dir operator at K=1 has dim 3"):
            disc_expansion(np.zeros(5, dtype=complex), op, 1, 1, 0)

    @pytest.mark.parametrize("K", [64, 16])
    def test_vector_of_another_truncation_rejected(self, K):
        # a dir K = 64 vector (129) is longer than the K = 32 basis (65), a K = 16 one (33) shorter
        op = build_operator(zero_potential(), DIRICHLET, 32)
        f = random_vector(BasisIndexSet(DIRICHLET, K), seed=1, max_abs_n=4)
        with pytest.raises(ValueError, match=rf"shape \({2 * K + 1},\), but the dir operator at K=32 has dim 65"):
            disc_expansion(f, op, 1, 1, 8)


class TestExpandCoefficients:
    def test_dirichlet_combined_mode(self):
        basis = BasisIndexSet(DIRICHLET, 2)
        f = expand({(0, 0): 1.0}, basis)
        f1, f2 = synthesize(f, basis, np.arange(8) * (np.pi / 8))
        assert np.allclose(f1, 1 / SQRT2)
        assert np.allclose(f2, 1 / SQRT2)

    def test_periodic_channel_fields(self):
        basis = BasisIndexSet(PER_PLUS, 2)
        x = np.arange(16) * (np.pi / 16)
        f = expand({(2, 1): 1.0}, basis)
        f1, f2 = synthesize(f, basis, x)
        assert np.allclose(f1, np.exp(-2j * x))
        assert np.allclose(f2, 0.0)
        g = expand({(-2, 2): 0.5}, basis)
        g1, g2 = synthesize(g, basis, x)
        assert np.allclose(g1, 0.0)
        assert np.allclose(g2, 0.5 * np.exp(-2j * x))

    def test_parity_mismatch_message(self):
        basis = BasisIndexSet(PER_PLUS, 2)
        with pytest.raises(ValueError, match="parity mismatch"):
            expand({(1, 1): 1.0}, basis)

    def test_wrong_channel(self):
        basis = BasisIndexSet(PER_PLUS, 2)
        with pytest.raises(ValueError):
            expand({(2, 0): 1.0}, basis)


class TestOrthonormality:
    @pytest.mark.parametrize("bc", BC_TAGS)
    def test_basis_gram_is_identity(self, bc):
        # (f, g) = (1/pi) int_0^pi (f1 conj(g1) + f2 conj(g2)) dx by
        # Gauss-Legendre quadrature: spectrally exact for these modes
        basis = BasisIndexSet(bc, 2)
        t, w = np.polynomial.legendre.leggauss(120)
        x = (t + 1) * (np.pi / 2)
        w = w * (np.pi / 2) / np.pi
        fields = []
        for i in range(basis.dim):
            coeffs = np.zeros(basis.dim, dtype=complex)
            coeffs[i] = 1.0
            fields.append(synthesize(coeffs, basis, x))
        gram = np.zeros((basis.dim, basis.dim), dtype=complex)
        for i, (a1, a2) in enumerate(fields):
            for j, (b1, b2) in enumerate(fields):
                gram[i, j] = np.sum(w * (a1 * b1.conj() + a2 * b2.conj()))
        assert np.max(np.abs(gram - np.eye(basis.dim))) < 1e-12


class TestReconstruct:
    def test_free_dirichlet(self):
        op = build_operator(zero_potential(), DIRICHLET, 16)
        f = random_vector(op.basis, seed=1, max_abs_n=4)
        expansion = disc_expansion(f, op, 1, 1, 8, nodes=64, global_nodes=256)
        [(_, err)] = reconstruction_curve(expansion, [8])
        assert err < 1e-9
        assert np.max(np.abs(expansion.start + sum(expansion.terms) - f)) < 1e-9

    def test_window_beyond_trusted_rejected(self):
        op = build_operator(zero_potential(), DIRICHLET, 16)
        f = random_vector(op.basis, seed=1, max_abs_n=4)
        with pytest.raises(ValueError):
            disc_expansion(f, op, 1, 1, 12)

    def test_below_threshold_rejected(self):
        spec = random_potential(0)  # threshold around 20 at unit norm
        op = build_operator(spec, PER_PLUS, 64)
        threshold = find_threshold_n(spec, PER_PLUS, 64)
        f = random_vector(op.basis, seed=1, max_abs_n=4)
        with pytest.raises(ValueError, match="below the verified threshold"):
            disc_expansion(f, op, 2, threshold, 32)

    def test_curve_defaults_to_every_shell(self):
        op = build_operator(zero_potential(), DIRICHLET, 16)
        f = random_vector(op.basis, seed=1, max_abs_n=4)
        expansion = disc_expansion(f, op, 2, 1, 6, global_nodes=256)
        assert expansion.report.discs == (-3, 3, -4, 4, -5, 5, -6, 6)
        assert reconstruction_curve(expansion) == reconstruction_curve(expansion, [3, 4, 5, 6])

    def test_curve_of_empty_window_rejected(self):
        op = build_operator(zero_potential(), DIRICHLET, 16)
        f = random_vector(op.basis, seed=1, max_abs_n=4)
        # the sweep refuses the window before any contour is integrated
        with pytest.raises(ValueError, match="no discs in the window"):
            disc_expansion(f, op, 3, 1, 3, global_nodes=256)

    def test_curve_nonincreasing_and_consistent(self):
        op = build_operator(zero_potential(), PER_PLUS, 16)
        f = random_vector(op.basis, seed=2, max_abs_n=6)
        Ms = [2, 4, 6, 8]
        curve = reconstruction_curve(disc_expansion(f, op, 1, 1, max(Ms), nodes=64, global_nodes=256), Ms)
        errs = [e for _, e in curve]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
        for M, err in curve:
            [(_, single)] = reconstruction_curve(disc_expansion(f, op, 1, 1, M, nodes=64, global_nodes=256), [M])
            assert err == pytest.approx(single, abs=1e-12)

    def test_curve_rejects_window_beyond_expansion(self):
        op = build_operator(zero_potential(), PER_PLUS, 16)
        f = random_vector(op.basis, seed=2, max_abs_n=6)
        expansion = disc_expansion(f, op, 1, 1, 4, global_nodes=256)
        with pytest.raises(ValueError):
            reconstruction_curve(expansion, [2, 6])

    def test_perturbed_reconstruction_converges(self):
        spec = random_potential(5, norm=0.3)
        op = build_operator(spec, PER_PLUS, 32)
        N = find_threshold_n(spec, PER_PLUS, 32)
        f = random_vector(op.basis, seed=4, max_abs_n=4)
        curve = reconstruction_curve(disc_expansion(f, op, N, N, 16), [N + 2, 8, 16])
        errs = [e for _, e in curve]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 0.05 * np.linalg.norm(f)


class TestUnconditionality:
    def test_free_case_terminals_agree(self):
        op = build_operator(zero_potential(), PER_PLUS, 16)
        f = random_vector(op.basis, seed=6, max_abs_n=6)
        rep = unconditionality_test(disc_expansion(f, op, 1, 1, 8, nodes=64, global_nodes=256), trials=6)
        assert rep.base_error < 1e-9
        assert rep.max_reordered_error < 1e-9
        assert rep.bari_markus_tail < 1e-20
        assert rep.excursion_constant == 0.0 or rep.bari_markus_tail > 0
        assert len(rep.trial_excursions) == 6
        assert len(rep.trial_terminals) == 6

    def test_deterministic_in_seed(self):
        op = build_operator(zero_potential(), PER_PLUS, 16)
        f = random_vector(op.basis, seed=6, max_abs_n=6)
        a = unconditionality_test(disc_expansion(f, op, 1, 1, 8, global_nodes=256), trials=3, seed=9)
        b = unconditionality_test(disc_expansion(f, op, 1, 1, 8, global_nodes=256), trials=3, seed=9)
        assert a == b

    def test_perturbed_terminals_agree(self):
        spec = random_potential(7, norm=0.3)
        op = build_operator(spec, PER_PLUS, 32)
        N = find_threshold_n(spec, PER_PLUS, 32)
        f = random_vector(op.basis, seed=8, max_abs_n=4)
        rep = unconditionality_test(disc_expansion(f, op, N, N, 16), trials=8)
        worst = max(abs(t - rep.base_error) for t in rep.trial_terminals)
        assert worst < 1e-10
        assert rep.bari_markus_tail > 0
        assert np.isfinite(rep.excursion_constant)
        # partial sums wander, but never beyond base + C sqrt(tail) ||f||
        assert rep.max_partial_sum_spread >= rep.base_error

    def test_rejects_no_trials(self):
        op = build_operator(zero_potential(), PER_PLUS, 16)
        f = random_vector(op.basis, seed=6, max_abs_n=6)
        with pytest.raises(ValueError):
            unconditionality_test(disc_expansion(f, op, 1, 1, 8), trials=0)


class TestStructuredPotentials:
    """The decomposition of potentials the Gaussian draws never produce, at
    K = 32, where each threshold is N = 6 or 7.  With P or Q identically zero
    the per+ truncation is defective and takes the Schur route."""

    @pytest.mark.parametrize("bc", [PER_PLUS, DIRICHLET])
    @pytest.mark.parametrize("kind", ["p_only", "q_only", "real"])
    def test_reconstruction_and_reordering(self, kind, bc):
        spec = structured_potential(kind)
        op = build_operator(spec, bc, 32)
        N = find_threshold_n(spec, bc, 32)
        assert N in (6, 7)
        f = random_vector(op.basis, seed=4, max_abs_n=4)
        expansion = disc_expansion(f, op, N, N, 16)
        assert expansion.report.route == ("schur" if bc == PER_PLUS and kind != "real" else "spectral")
        errs = [e for _, e in reconstruction_curve(expansion)]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 0.05 * np.linalg.norm(f)
        rep = unconditionality_test(expansion, trials=8)
        assert max(abs(t - rep.base_error) for t in rep.trial_terminals) < 1e-10
        assert np.isfinite(rep.bari_markus_tail) and np.isfinite(rep.excursion_constant)

    @pytest.mark.parametrize("bc", [PER_PLUS, DIRICHLET])
    @pytest.mark.parametrize("kind", ["constant", "scaled_random"])
    def test_no_threshold_in_reach(self, kind, bc):
        for K in (32, 64):
            with pytest.raises(ThresholdNotFoundError):
                find_threshold_n(structured_potential(kind), bc, K)


def _small_operator():
    return build_operator(random_potential(3, norm=0.3), DIRICHLET, 8)


@pytest.mark.parametrize(
    "build",
    [
        _small_operator,
        lambda: projections.global_projection(_small_operator(), 2),
        lambda: disc_expansion(random_vector(BasisIndexSet(DIRICHLET, 8), seed=0), _small_operator(), 2, 2, 4),
    ],
    ids=["OperatorMatrix", "ProjectionResult", "DiscExpansion"],
)
def test_array_holders_compare_by_identity(build):
    # a generated field-by-field __eq__ would compare arrays, whose truth value is ambiguous
    a, b = build(), build()
    assert (a == b) is False
    assert a == a
    assert hash(a) == hash(a) != hash(b)
