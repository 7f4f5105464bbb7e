"""Fourier-side description of the matrix potential v(x) = [[0, P], [Q, 0]].

Everything downstream works on [0, pi] with the normalized inner product
``<F, G> = (1/pi) * int_0^pi (f1 conj(g1) + f2 conj(g2)) dx``, under which
the exponentials ``e^{imx}`` with m ranging over one parity class of the
integers form an orthonormal family.  A potential is therefore carried
around as four finite coefficient maps: the even-lattice and odd-lattice
coefficients of P and of Q.  The even-lattice pair determines the potential
as a function on [0, pi] (P and Q are period-pi objects there); the
odd-lattice pair is the extra half-range data consumed only by the
Dirichlet-type coupling, where the natural coefficient sequence

    W(m) = (p(-m) + q(m)) / 2

mixes both parities.

All upper bounds in the package run through a single nonnegative envelope,
the dominating sequence r: on the even lattice

    r(m) = max(|p(m)|, |p(-m)|) + max(|q(m)|, |q(-m)|)

for the periodic/antiperiodic couplings, and r(m) = |W(m)| on the full
lattice for the Dirichlet-type one.  Tail energies E_m(r) and the decay
functional rho_N built from r are defined here as well, since every bound
module quotes them.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

PER_PLUS = "per+"
PER_MINUS = "per-"
DIRICHLET = "dir"

BC_TAGS = (PER_PLUS, PER_MINUS, DIRICHLET)


def validate_bc(bc: str) -> str:
    if bc not in BC_TAGS:
        raise ValueError(f"unknown boundary condition tag {bc!r}; expected one of {BC_TAGS}")
    return bc


def _check_coeffs(name: str, coeffs: Mapping[int, complex], parity: int, max_mode: int) -> dict[int, complex]:
    out: dict[int, complex] = {}
    for m, val in coeffs.items():
        m = int(m)
        if m % 2 != parity:
            want = "even" if parity == 0 else "odd"
            raise ValueError(f"{name}: mode {m} has the wrong parity (lattice is {want})")
        if abs(m) > max_mode:
            raise ValueError(f"{name}: mode {m} outside |m| <= max_mode = {max_mode}")
        val = complex(val)
        if not (math.isfinite(val.real) and math.isfinite(val.imag)):
            raise ValueError(f"{name}: coefficient at mode {m} is not finite")
        out[m] = val
    return out


@dataclass(frozen=True)
class PotentialSpec:
    """Finite coefficient maps for P and Q on both integer parity classes.

    max_mode bounds the support: every stored mode m satisfies |m| <= max_mode.
    Missing modes are zero.  r_sequence caches each bc's envelope on the
    spec, so every reader of one potential shares one RSequence.
    """

    p_even: Mapping[int, complex]
    q_even: Mapping[int, complex]
    p_odd: Mapping[int, complex]
    q_odd: Mapping[int, complex]
    max_mode: int
    _envelopes: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.max_mode < 0:
            raise ValueError("max_mode must be nonnegative")
        object.__setattr__(self, "p_even", _check_coeffs("p_even", self.p_even, 0, self.max_mode))
        object.__setattr__(self, "q_even", _check_coeffs("q_even", self.q_even, 0, self.max_mode))
        object.__setattr__(self, "p_odd", _check_coeffs("p_odd", self.p_odd, 1, self.max_mode))
        object.__setattr__(self, "q_odd", _check_coeffs("q_odd", self.q_odd, 1, self.max_mode))
        names = ("p_even", "q_even", "p_odd", "q_odd")
        sizes = {(name, m): abs(v) for name in names for m, v in getattr(self, name).items()}
        if not math.isfinite(sum(c * c for c in sizes.values())):
            name, m = max(sizes, key=sizes.get)
            raise ValueError(f"{name}: the sum of |c|^2 overflows float64 (largest coefficient at mode {m})")

    def p(self, m: int) -> complex:
        table = self.p_even if m % 2 == 0 else self.p_odd
        return table.get(m, 0j)

    def q(self, m: int) -> complex:
        table = self.q_even if m % 2 == 0 else self.q_odd
        return table.get(m, 0j)

    def coupled_modes(self, bc: str) -> list[int]:
        """Ascending modes m of bc's coefficient lattice with m or -m stored.

        Every envelope and weight built from the coefficients vanishes off
        these modes, so sums over them never visit all |m| <= max_mode.
        """
        tables = (self.p_even, self.q_even, self.p_odd, self.q_odd) if bc == DIRICHLET else (self.p_even, self.q_even)
        modes = set().union(*tables)
        return sorted(modes | {-m for m in modes})

    @staticmethod
    def from_coefficients(p: Mapping[int, complex], q: Mapping[int, complex], max_mode: int) -> "PotentialSpec":
        """The spec of P's and Q's coefficient maps, each split by parity in its insertion order."""
        tables = [{m: v for m, v in c.items() if m % 2 == parity} for parity in (0, 1) for c in (p, q)]
        return PotentialSpec(*tables, max_mode)  # p_even, q_even, p_odd, q_odd

    def scaled(self, t: complex) -> "PotentialSpec":
        return PotentialSpec.from_coefficients(
            {m: t * v for m, v in (*self.p_even.items(), *self.p_odd.items())},
            {m: t * v for m, v in (*self.q_even.items(), *self.q_odd.items())},
            self.max_mode,
        )


def from_samples(p_samples, q_samples, max_mode: int) -> PotentialSpec:
    """Build a PotentialSpec from uniform samples on [0, pi).

    Samples sit at x_j = j*pi/n, j = 0..n-1 (left endpoints).  The modes
    e^{imx} for |m| <= max_mode are not orthogonal on a half range, so plain
    discrete means would leak O(1) mass across parity classes; instead the
    coefficients solve the least-squares system against the sampled modes,
    which recovers any input band-limited to |m| <= max_mode exactly.  At
    least 4*max_mode samples are required to keep that system comfortably
    overdetermined.
    """
    p = np.asarray(p_samples, dtype=complex)
    q = np.asarray(q_samples, dtype=complex)
    if p.ndim != 1 or q.ndim != 1 or p.shape != q.shape:
        raise ValueError("p_samples and q_samples must be 1-d arrays of equal length")
    n = p.size
    if n < max(1, 4 * max_mode):
        raise ValueError(f"too few samples: need at least 4*max_mode = {4 * max_mode}, got {n}")
    if not (np.all(np.isfinite(p.real)) and np.all(np.isfinite(p.imag))
            and np.all(np.isfinite(q.real)) and np.all(np.isfinite(q.imag))):
        raise ValueError("samples must be finite")
    x = np.arange(n) * (np.pi / n)
    modes = np.arange(-max_mode, max_mode + 1)
    design = np.exp(1j * np.outer(x, modes))
    cp = np.linalg.lstsq(design, p, rcond=None)[0]
    cq = np.linalg.lstsq(design, q, rcond=None)[0]
    return PotentialSpec.from_coefficients(
        {int(m): complex(c) for m, c in zip(modes, cp)}, {int(m): complex(c) for m, c in zip(modes, cq)}, max_mode
    )


def potential_norm(spec: PotentialSpec) -> float:
    """L2 norm of the potential on [0, pi] under the 1/pi normalization.

    Only the even-lattice coefficients enter: they are the Fourier series of
    P and Q as period-pi functions, so ||v||^2 = sum |p(m)|^2 + |q(m)|^2
    over the even lattice.
    """
    total = sum(abs(v) ** 2 for v in spec.p_even.values())
    total += sum(abs(v) ** 2 for v in spec.q_even.values())
    return math.sqrt(total)


def dirichlet_w(spec: PotentialSpec, m: int) -> complex:
    """Coefficient sequence driving the Dirichlet-type coupling."""
    return (spec.p(-m) + spec.q(m)) / 2


@dataclass(frozen=True)
class RSequence:
    """Nonnegative dominating envelope of the potential coefficients.

    values maps lattice points to r(m) >= 0; step is the lattice spacing
    (2 for the periodic/antiperiodic couplings, 1 for the Dirichlet-type
    one).  Points outside the map are zero.  values is read-only, so the
    derived quantities below are computed once per envelope.
    """

    values: Mapping[int, float]
    step: int

    def __post_init__(self) -> None:
        if self.step not in (1, 2):
            raise ValueError("step must be 1 or 2")
        clean: dict[int, float] = {}
        for m, v in self.values.items():
            m = int(m)
            if m % self.step != 0:
                raise ValueError(f"lattice point {m} incompatible with step {self.step}")
            v = float(v)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"r({m}) must be finite and nonnegative")
            clean[m] = v
        object.__setattr__(self, "values", MappingProxyType(clean))

    def __call__(self, m: int) -> float:
        return self.values.get(m, 0.0)

    @cached_property
    def norm_sq(self) -> float:
        return sum(v * v for v in self.values.values())

    @cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(m for m, v in self.values.items() if v != 0.0))

    @cached_property
    def support_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (j, r(j), r(j)^2) over the support, ascending in j."""
        js = np.array(self.support, dtype=int)
        rs = np.array([self(int(j)) for j in js], dtype=float)
        arrays = (js, rs, rs**2)
        for a in arrays:
            a.flags.writeable = False
        return arrays


def r_sequence(spec: PotentialSpec, bc: str) -> RSequence:
    """bc's envelope r of spec, built on the first call and cached on spec."""
    validate_bc(bc)
    if bc not in spec._envelopes:
        modes = spec.coupled_modes(bc)
        if bc == DIRICHLET:
            r = RSequence({m: abs(dirichlet_w(spec, m)) for m in modes}, step=1)
        else:
            vals = {m: max(abs(spec.p(m)), abs(spec.p(-m))) + max(abs(spec.q(m)), abs(spec.q(-m))) for m in modes}
            r = RSequence(vals, step=2)
        spec._envelopes[bc] = r
    return spec._envelopes[bc]


def tail_norm(x, m: int) -> float:
    """E_m(x) = sqrt(sum of |x(j)|^2 over |j| >= m)."""
    if m < 0:
        raise ValueError("tail index must be nonnegative")
    values = x.values if isinstance(x, RSequence) else x
    return math.sqrt(sum(abs(v) ** 2 for j, v in values.items() if abs(j) >= m))


def rho(spec: PotentialSpec, bc: str, N: int) -> float:
    """Decay functional rho_N = sqrt(||r||^2 / sqrt(N) + E_N(r)^2)."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    r = r_sequence(spec, bc)
    return math.sqrt(r.norm_sq / math.sqrt(N) + tail_norm(r, N) ** 2)


def random_potential(seed, max_mode: int = 8, norm: float = 1.0) -> PotentialSpec:
    """Seeded trigonometric-polynomial potential with Gaussian coefficients.

    Draws independent complex Gaussians on every mode |m| <= max_mode of
    both parity classes for P and Q (fixed draw order, so a seed pins the
    potential exactly), then rescales so potential_norm equals `norm`.
    """
    rng = np.random.default_rng(seed)
    modes = list(range(-max_mode, max_mode + 1))

    def draw() -> dict[int, complex]:
        re = rng.standard_normal(len(modes))
        im = rng.standard_normal(len(modes))
        return {m: complex(a, b) for m, a, b in zip(modes, re, im)}

    spec = PotentialSpec.from_coefficients(draw(), draw(), max_mode)  # P's draw, then Q's
    size = potential_norm(spec)
    if norm > 0 and size > 0:
        spec = spec.scaled(norm / size)
    return spec
