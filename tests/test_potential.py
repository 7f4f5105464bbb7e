"""Coefficient tables, dominating envelopes, and the decay functional."""

import math

import numpy as np
import pytest

from diracproj.potential import (
    BC_TAGS,
    DIRICHLET,
    PER_MINUS,
    PER_PLUS,
    PotentialSpec,
    RSequence,
    dirichlet_w,
    from_samples,
    potential_norm,
    r_sequence,
    random_potential,
    rho,
    tail_norm,
    validate_bc,
)
from helpers import zero_potential


def grid(n):
    return np.arange(n) * (np.pi / n)


class TestValidation:
    def test_bc_tags(self):
        assert BC_TAGS == (PER_PLUS, PER_MINUS, DIRICHLET)
        for tag in BC_TAGS:
            assert validate_bc(tag) == tag

    def test_bad_bc_rejected(self):
        with pytest.raises(ValueError):
            validate_bc("periodic")

    def test_parity_of_tables_enforced(self):
        with pytest.raises(ValueError):
            PotentialSpec(p_even={1: 1.0}, q_even={}, p_odd={}, q_odd={}, max_mode=2)
        with pytest.raises(ValueError):
            PotentialSpec(p_even={}, q_even={}, p_odd={2: 1.0}, q_odd={}, max_mode=2)

    def test_mode_range_enforced(self):
        with pytest.raises(ValueError):
            PotentialSpec(p_even={4: 1.0}, q_even={}, p_odd={}, q_odd={}, max_mode=2)

    def test_finite_coefficients_enforced(self):
        with pytest.raises(ValueError):
            PotentialSpec(p_even={0: float("inf")}, q_even={}, p_odd={}, q_odd={}, max_mode=0)

    def test_overflowing_energy_rejected_naming_largest_mode(self):
        # each |c|^2 alone is finite; their sum is not, and potential_norm
        # would have raised OverflowError on the 1e200 one
        with pytest.raises(ValueError, match=r"q_odd.*mode -1"):
            PotentialSpec(p_even={}, q_even={}, p_odd={}, q_odd={1: 1e154, -1: 1.1e154}, max_mode=1)
        with pytest.raises(ValueError, match=r"p_even.*mode -4"):
            PotentialSpec(p_even={2: 1e100, -4: 1e200j}, q_even={}, p_odd={}, q_odd={}, max_mode=4)
        spec = PotentialSpec(p_even={2: 1e150}, q_even={}, p_odd={}, q_odd={}, max_mode=2)
        assert potential_norm(spec) == pytest.approx(1e150)

    def test_lookup_defaults_to_zero(self):
        spec = PotentialSpec(p_even={2: 1.0}, q_even={}, p_odd={}, q_odd={}, max_mode=2)
        assert spec.p(2) == 1.0
        assert spec.p(-2) == 0.0
        assert spec.q(2) == 0.0

    def test_scaled(self):
        spec = PotentialSpec(p_even={2: 1.0}, q_even={0: 2.0}, p_odd={}, q_odd={}, max_mode=2)
        doubled = spec.scaled(2.0)
        assert doubled.p(2) == 2.0
        assert doubled.q(0) == 4.0
        assert potential_norm(doubled) == pytest.approx(2 * potential_norm(spec))

    def test_zero(self):
        z = zero_potential()
        assert potential_norm(z) == 0.0
        assert z.p(0) == 0.0


class TestFromSamples:
    def test_cosine_recovers_half_half(self):
        # cos(2x) = (e^{2ix} + e^{-2ix}) / 2
        x = grid(64)
        spec = from_samples(np.cos(2 * x), np.zeros_like(x), max_mode=4)
        assert spec.p(2) == pytest.approx(0.5, abs=1e-10)
        assert spec.p(-2) == pytest.approx(0.5, abs=1e-10)
        assert spec.p(0) == pytest.approx(0.0, abs=1e-10)
        assert spec.q(2) == pytest.approx(0.0, abs=1e-10)

    def test_single_even_mode(self):
        x = grid(64)
        spec = from_samples(np.exp(2j * x), np.zeros_like(x), max_mode=4)
        assert spec.p(2) == pytest.approx(1.0, abs=1e-10)
        assert sum(abs(spec.p(m)) for m in range(-4, 5) if m != 2) < 1e-9

    def test_single_odd_mode_no_parity_leakage(self):
        x = grid(64)
        spec = from_samples(np.exp(1j * x), np.zeros_like(x), max_mode=4)
        assert spec.p(1) == pytest.approx(1.0, abs=1e-10)
        # a plain discrete mean would leak ~2/(pi*delta) into even modes
        assert sum(abs(spec.p(m)) for m in range(-4, 5) if m != 1) < 1e-9

    def test_mixed_parity_round_trip(self):
        rng = np.random.default_rng(7)
        max_mode = 5
        modes = range(-max_mode, max_mode + 1)
        cp = {m: complex(*rng.standard_normal(2)) for m in modes}
        cq = {m: complex(*rng.standard_normal(2)) for m in modes}
        x = grid(40)
        p = sum(c * np.exp(1j * m * x) for m, c in cp.items())
        q = sum(c * np.exp(1j * m * x) for m, c in cq.items())
        spec = from_samples(p, q, max_mode)
        for m in modes:
            assert spec.p(m) == pytest.approx(cp[m], abs=1e-9)
            assert spec.q(m) == pytest.approx(cq[m], abs=1e-9)

    def test_too_few_samples_rejected(self):
        x = grid(8)
        with pytest.raises(ValueError):
            from_samples(np.cos(2 * x), np.zeros_like(x), max_mode=4)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            from_samples(np.zeros(16), np.zeros(17), max_mode=2)

    def test_nonfinite_rejected(self):
        bad = np.zeros(16)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            from_samples(bad, np.zeros(16), max_mode=2)


class TestNormAndW:
    def test_norm_is_euclidean_over_even_modes(self):
        spec = PotentialSpec(p_even={2: 1.0}, q_even={2: 1j}, p_odd={}, q_odd={}, max_mode=2)
        assert potential_norm(spec) == pytest.approx(math.sqrt(2))

    def test_norm_matches_sampled_rms_for_even_input(self):
        # Parseval under the 1/pi-normalized inner product: period-pi input,
        # so the even-mode expansion is the whole story.
        x = grid(128)
        p = 0.7 * np.exp(2j * x) - 0.4 * np.exp(-4j * x)
        q = 1.1 * np.cos(2 * x)
        spec = from_samples(p, q, max_mode=4)
        rms = math.sqrt(float(np.mean(np.abs(p) ** 2 + np.abs(q) ** 2)))
        assert potential_norm(spec) == pytest.approx(rms, rel=1e-10)

    def test_w_mixes_p_reflected_and_q(self):
        spec = PotentialSpec(p_even={2: 1.0}, q_even={}, p_odd={}, q_odd={}, max_mode=2)
        assert dirichlet_w(spec, -2) == pytest.approx(0.5)
        assert dirichlet_w(spec, 2) == pytest.approx(0.0)

    def test_w_sees_odd_modes(self):
        spec = PotentialSpec(p_even={}, q_even={}, p_odd={1: 1.0}, q_odd={}, max_mode=1)
        assert dirichlet_w(spec, -1) == pytest.approx(0.5)


class TestRSequence:
    def test_validation(self):
        with pytest.raises(ValueError):
            RSequence({1: 1.0}, step=2)
        with pytest.raises(ValueError):
            RSequence({2: -1.0}, step=2)
        with pytest.raises(ValueError):
            RSequence({}, step=3)

    def test_lookup_norm_support(self):
        r = RSequence({2: 3.0, -4: 4.0, 0: 0.0}, step=2)
        assert r(2) == 3.0
        assert r(6) == 0.0
        assert r.norm_sq == pytest.approx(25.0)
        assert r.support == (-4, 2)
        js, rs, ws = r.support_arrays
        assert js.tolist() == [-4, 2] and rs.tolist() == [4.0, 3.0] and ws.tolist() == [16.0, 9.0]

    def test_read_only(self):
        r = RSequence({2: 3.0}, step=2)
        with pytest.raises(TypeError):
            r.values[2] = 5.0
        for a in r.support_arrays:
            with pytest.raises(ValueError):
                a[...] = 0
        empty = RSequence({}, step=1)
        assert empty.support == () and all(a.size == 0 for a in empty.support_arrays)

    def test_envelope_built_once_per_spec_and_bc(self):
        spec = random_potential(1)
        for bc in BC_TAGS:
            assert r_sequence(spec, bc) is r_sequence(spec, bc)
        assert r_sequence(spec, PER_PLUS) is not r_sequence(spec, PER_MINUS)
        # a fresh spec builds its own envelope, equal to the first
        twin = random_potential(1)
        assert r_sequence(twin, DIRICHLET) is not r_sequence(spec, DIRICHLET)
        assert r_sequence(twin, DIRICHLET) == r_sequence(spec, DIRICHLET)
        assert twin == spec

    def test_periodic_envelope_symmetrizes(self):
        spec = PotentialSpec(p_even={2: 1.0}, q_even={2: 1j}, p_odd={}, q_odd={}, max_mode=2)
        r = r_sequence(spec, PER_PLUS)
        # max(|p(m)|,|p(-m)|) + max(|q(m)|,|q(-m)|) is even in m
        assert r(2) == pytest.approx(2.0)
        assert r(-2) == pytest.approx(2.0)
        assert r(0) == 0.0
        assert r.step == 2

    def test_dirichlet_envelope_is_w_magnitude(self):
        spec = PotentialSpec(p_even={2: 1.0}, q_even={}, p_odd={}, q_odd={}, max_mode=2)
        r = r_sequence(spec, DIRICHLET)
        assert r(-2) == pytest.approx(0.5)
        assert r(2) == 0.0
        assert r.step == 1

    def test_envelope_dominates_both_coupling_coefficients(self):
        spec = random_potential(3)
        r = r_sequence(spec, PER_PLUS)
        for m in range(-8, 9, 2):
            assert r(m) + 1e-15 >= abs(spec.p(m))
            assert r(m) + 1e-15 >= abs(spec.q(m))
            assert r(m) == pytest.approx(r(-m))


class TestTailAndRho:
    def test_tail_norm_counts_boundary(self):
        x = {j: 1.0 for j in (-4, -2, 0, 2, 4)}
        assert tail_norm(x, 2) == pytest.approx(2.0)
        assert tail_norm(x, 0) == pytest.approx(math.sqrt(5))
        assert tail_norm(x, 5) == 0.0

    def test_tail_norm_accepts_rsequence(self):
        r = RSequence({2: 1.0, -2: 1.0}, step=2)
        assert tail_norm(r, 2) == pytest.approx(math.sqrt(2))

    def test_tail_norm_rejects_negative_index(self):
        with pytest.raises(ValueError):
            tail_norm({0: 1.0}, -1)

    def test_rho_example(self):
        # r(+-2) = 1, N = 4: tail empty, rho = sqrt(2 / sqrt(4)) = 1
        spec = PotentialSpec(p_even={2: 0.5, -2: 0.5}, q_even={2: 0.5, -2: 0.5},
                             p_odd={}, q_odd={}, max_mode=2)
        r = r_sequence(spec, PER_PLUS)
        assert r(2) == pytest.approx(1.0)
        assert rho(spec, PER_PLUS, 4) == pytest.approx(1.0)

    def test_rho_decreases_in_n_beyond_support(self):
        spec = random_potential(11)
        values = [rho(spec, PER_PLUS, N) for N in (10, 20, 40, 80)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rho_rejects_bad_n(self):
        with pytest.raises(ValueError):
            rho(zero_potential(), PER_PLUS, 0)


class TestRandomPotential:
    def test_deterministic(self):
        a = random_potential(5)
        b = random_potential(5)
        assert a == b

    def test_seeds_differ(self):
        assert random_potential(1) != random_potential(2)

    def test_unit_norm_and_band_limit(self):
        spec = random_potential(9, max_mode=8)
        assert potential_norm(spec) == pytest.approx(1.0, rel=1e-12)
        assert spec.max_mode == 8
        assert all(abs(m) <= 8 for m in spec.p_even)
        assert all(abs(m) <= 8 for m in spec.p_odd)

    def test_norm_parameter(self):
        spec = random_potential(9, norm=0.3)
        assert potential_norm(spec) == pytest.approx(0.3, rel=1e-12)
