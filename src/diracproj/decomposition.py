"""Spectral decomposition f = S_N f + sum_n P_n f and its reorderings.

Vectors live in the coefficient space of one truncation basis.  For the
periodic couplings the basis vectors are e1_n = (e^{-inx}, 0) and
e2_n = (0, e^{inx}); for the Dirichlet-type coupling they are the combined
g_n = (e1_n + e2_n)/sqrt(2).  All are orthonormal under the normalized
inner product (1/pi) * int_0^pi (f1 conj(g1) + f2 conj(g2)) dx, so
coefficient 2-norms are function L2 norms and Parseval is exact.

The decomposition splits a function into the part S_N f inside the circle
|z| = N + 1/2 plus one term P_n f per trusted disc.  Quadratic closeness of
the disc projections to the orthogonal free family makes the series
unconditionally convergent, which is checked here empirically: reordering
the terms must not move the terminal sum, and partial-sum excursions must
stay within a stable multiple of sqrt(tail) * ||f||.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .operator import BasisIndexSet, OperatorMatrix, disc_centers
from .projections import (
    ContourSpec,
    deviation,
    free_projection,
    global_projection,
    riesz_projection,
)

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class FunctionVector:
    """Coefficients of a two-component function in one truncation basis."""

    basis: BasisIndexSet
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.shape != (self.basis.dim,):
            raise ValueError(f"coefficient vector must have length {self.basis.dim}")
        object.__setattr__(self, "coeffs", arr)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def apply(self, matrix: np.ndarray) -> "FunctionVector":
        return FunctionVector(self.basis, matrix @ self.coeffs)


def uniform_grid(count: int) -> np.ndarray:
    """Left-endpoint sample grid x_j = j*pi/count on [0, pi)."""
    return np.arange(count) * (np.pi / count)


def expand(data, basis: BasisIndexSet) -> FunctionVector:
    """Expand a function over the basis.

    Accepts either explicit coefficients (a mapping {(n, channel): value} or
    an iterable of (n, channel, value) triples; indices must exist in the
    basis, otherwise a parity-mismatch error is raised) or a pair of sample
    arrays (f1, f2) on the uniform grid.  The sample route solves the
    least-squares system against the sampled basis fields, which recovers
    inputs band-limited to the basis exactly; plain discrete means would
    not, because the full integer lattice is not orthogonal on a half range.
    """
    if isinstance(data, tuple) and len(data) == 2 and not isinstance(data[0], (int, np.integer)):
        return _expand_samples(data[0], data[1], basis)
    coeffs = np.zeros(basis.dim, dtype=complex)
    items = data.items() if isinstance(data, Mapping) else data
    for item in items:
        if isinstance(data, Mapping):
            (n, ch), val = item
        else:
            n, ch, val = item
        try:
            pos = basis.position(int(n), int(ch))
        except KeyError:
            raise ValueError(
                f"parity mismatch: index (n={n}, channel={ch}) is not in the "
                f"{basis.bc} basis at K={basis.K}"
            ) from None
        coeffs[pos] = complex(val)
    return FunctionVector(basis, coeffs)


def _expand_samples(f1_samples, f2_samples, basis: BasisIndexSet) -> FunctionVector:
    f1 = np.asarray(f1_samples, dtype=complex)
    f2 = np.asarray(f2_samples, dtype=complex)
    if f1.ndim != 1 or f1.shape != f2.shape:
        raise ValueError("samples must be two equal-length 1-d arrays")
    count = f1.size
    if count < 2 * basis.dim:
        raise ValueError(f"too few samples: need at least 2*dim = {2 * basis.dim}, got {count}")
    x = uniform_grid(count)
    design = np.zeros((2 * count, basis.dim), dtype=complex)
    for i, (n, ch) in enumerate(basis.indices):
        if ch == 1:
            design[:count, i] = np.exp(-1j * n * x)
        elif ch == 2:
            design[count:, i] = np.exp(1j * n * x)
        else:
            design[:count, i] = np.exp(-1j * n * x) / SQRT2
            design[count:, i] = np.exp(1j * n * x) / SQRT2
    stacked = np.concatenate([f1, f2])
    coeffs = np.linalg.lstsq(design, stacked, rcond=None)[0]
    return FunctionVector(basis, coeffs)


def synthesize(f: FunctionVector, x) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate both components on the points x."""
    x = np.asarray(x, dtype=float)
    f1 = np.zeros_like(x, dtype=complex)
    f2 = np.zeros_like(x, dtype=complex)
    for (n, ch), c in zip(f.basis.indices, f.coeffs):
        if not c:
            continue
        if ch == 1:
            f1 += c * np.exp(-1j * n * x)
        elif ch == 2:
            f2 += c * np.exp(1j * n * x)
        else:
            f1 += (c / SQRT2) * np.exp(-1j * n * x)
            f2 += (c / SQRT2) * np.exp(1j * n * x)
    return f1, f2


def _ordered_discs(basis: BasisIndexSet, N: int, M: int) -> list[int]:
    if M > basis.trusted_limit:
        raise ValueError(f"M = {M} exceeds the trusted window |n| <= {basis.trusted_limit}")
    return sorted(
        (n for n in disc_centers(basis.bc, M) if abs(n) > N),
        key=lambda n: (abs(n), n),
    )


@dataclass(frozen=True)
class DiscExpansion:
    """S_N f and the disc terms P_n f of one function over N < |n| <= M.

    Each disc projection and the global one are built once and applied to f
    in factored form; only the term vectors and each disc's deviation
    ||P_n - P_n^0||_HS are kept.  discs run in the canonical (|n|, n) order.
    """

    f: FunctionVector
    M: int
    discs: tuple[int, ...]
    start: np.ndarray
    terms: tuple[np.ndarray, ...]
    deviations: tuple[float, ...]


def disc_expansion(
    f: FunctionVector,
    op: OperatorMatrix,
    N: int,
    M: int,
    radius: float = 0.5,
    nodes: int = 64,
    global_nodes: int | None = None,
) -> DiscExpansion:
    """Apply S_N and every window disc projection to f, one contour each."""
    discs = _ordered_discs(op.basis, N, M)
    terms = []
    devs = []
    for n in discs:
        p = riesz_projection(op, ContourSpec(n, radius, nodes))
        terms.append(p.apply(f.coeffs))
        devs.append(deviation(p, free_projection(op.basis.bc, n, op.basis.K)))
    start = global_projection(op, N, global_nodes).apply(f.coeffs)
    return DiscExpansion(f, M, tuple(discs), start, tuple(terms), tuple(devs))


def reconstruct(
    f: FunctionVector,
    op: OperatorMatrix,
    N: int,
    M: int,
    radius: float = 0.5,
    nodes: int = 64,
    global_nodes: int | None = None,
) -> tuple[FunctionVector, float]:
    """Rebuild f as S_N f + sum of disc terms up to |n| <= M.

    Returns the reconstruction and its L2 error against f.
    """
    expansion = disc_expansion(f, op, N, M, radius, nodes, global_nodes)
    acc = expansion.start
    for term in expansion.terms:
        acc = acc + term
    f_hat = FunctionVector(op.basis, acc)
    return f_hat, float(np.linalg.norm(acc - f.coeffs))


def reconstruction_curve(expansion: DiscExpansion, Ms) -> list[tuple[int, float]]:
    """Reconstruction error as the disc window M grows, reusing every term."""
    Ms = sorted(int(m) for m in Ms)
    if Ms[-1] > expansion.M:
        raise ValueError(f"window M = {Ms[-1]} exceeds the expansion's M = {expansion.M}")
    target = expansion.f.coeffs
    acc = expansion.start
    out = []
    i = 0
    for M in Ms:
        while i < len(expansion.discs) and abs(expansion.discs[i]) <= M:
            acc = acc + expansion.terms[i]
            i += 1
        out.append((M, float(np.linalg.norm(acc - target))))
    return out


@dataclass(frozen=True)
class UnconditionalityReport:
    """Reordering experiment over the disc terms of one decomposition.

    base_error is the terminal error in the canonical (|n|, n) order;
    max_reordered_error the worst terminal error over all trials (terminal
    sums must agree if the series is unconditional); max_partial_sum_spread
    the worst intermediate error anywhere along any trial, whose distance
    above base_error is what the Bari-Markus tail controls.
    """

    trials: int
    seed: int
    base_error: float
    max_reordered_error: float
    max_partial_sum_spread: float
    bari_markus_tail: float
    f_norm: float
    trial_excursions: tuple[float, ...]
    trial_terminals: tuple[float, ...]

    @property
    def excursion_constant(self) -> float:
        """Fitted C in  excursion <= base + C * sqrt(tail) * ||f||."""
        scale = np.sqrt(self.bari_markus_tail) * self.f_norm
        if scale == 0.0:
            return 0.0
        return (self.max_partial_sum_spread - self.base_error) / scale


def unconditionality_test(expansion: DiscExpansion, trials: int = 16, seed: int = 0) -> UnconditionalityReport:
    """Permute the disc terms and watch the partial sums.

    Each trial draws its permutation from an independent stream seeded by
    (seed, trial index), so any single trial is reproducible in isolation.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    terms = expansion.terms
    start = expansion.start
    target = expansion.f.coeffs

    def run(order) -> tuple[float, float]:
        acc = start.copy()
        worst = float(np.linalg.norm(acc - target))
        for idx in order:
            acc += terms[idx]
            worst = max(worst, float(np.linalg.norm(acc - target)))
        return worst, float(np.linalg.norm(acc - target))

    _, base_error = run(range(len(terms)))
    excursions: list[float] = []
    terminals: list[float] = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        order = rng.permutation(len(terms))
        worst, terminal = run(order)
        excursions.append(worst)
        terminals.append(terminal)

    return UnconditionalityReport(
        trials=trials,
        seed=seed,
        base_error=base_error,
        max_reordered_error=max(terminals + [base_error]),
        max_partial_sum_spread=max(excursions + [base_error]),
        bari_markus_tail=float(sum(d * d for d in expansion.deviations)),
        f_norm=expansion.f.norm,
        trial_excursions=tuple(excursions),
        trial_terminals=tuple(terminals),
    )
