"""Spectral decomposition f = S_N f + sum_n P_n f and its reorderings.

This module works in coefficient space only: a function is its
coefficient vector in one truncation basis, built from {(n, channel):
value} by expand, and nothing here samples it or evaluates it on [0, pi].
For the periodic couplings the basis vectors are e1_n = (e^{-inx}, 0) and
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

from dataclasses import dataclass

import numpy as np

from .operator import BasisIndexSet, OperatorMatrix
from .projections import DeviationReport, _disc_sweep, global_projection


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


def expand(coeffs, basis: BasisIndexSet) -> FunctionVector:
    """The coefficient vector of {(n, channel): value} in the basis ordering.

    Every index must exist in the basis; one that does not (the wrong
    parity of n, or the wrong channel) raises a parity-mismatch error.
    """
    vector = np.zeros(basis.dim, dtype=complex)
    for (n, ch), val in coeffs.items():
        try:
            pos = basis.position(int(n), int(ch))
        except KeyError:
            raise ValueError(
                f"parity mismatch: index (n={n}, channel={ch}) is not in the "
                f"{basis.bc} basis at K={basis.K}"
            ) from None
        vector[pos] = complex(val)
    return FunctionVector(basis, vector)


@dataclass(frozen=True)
class DiscExpansion:
    """S_N f and the disc terms P_n f of one function over N < |n| <= M.

    report is the disc sweep that built the terms: its discs, in the
    canonical (|n|, n) order, and their deviations ||P_n - P_n^0||_HS.
    terms[i] is P_n f for n = report.discs[i]; the projections themselves,
    built once each and applied in factored form, are not kept.
    """

    f: FunctionVector
    M: int
    report: DeviationReport
    start: np.ndarray
    terms: tuple[np.ndarray, ...]


def disc_expansion(
    f: FunctionVector,
    op: OperatorMatrix,
    N: int,
    threshold: int,
    M: int,
    radius: float = 0.5,
    nodes: int = 64,
    global_nodes: int | None = None,
) -> DiscExpansion:
    """Apply S_N and every window disc projection to f, one contour each.

    N must be at or above the verified `threshold`, and M at most K/2.
    """
    report, terms = _disc_sweep(op, N, threshold, M, radius, nodes, f.coeffs)
    start = global_projection(op, N, global_nodes).apply(f.coeffs)
    return DiscExpansion(f, M, report, start, terms)


def reconstruction_curve(expansion: DiscExpansion, Ms=None) -> list[tuple[int, float]]:
    """Reconstruction error as the disc window M grows, reusing every term.

    Ms defaults to every shell |n| of the expansion's discs.
    """
    discs = expansion.report.discs
    Ms = sorted({abs(n) for n in discs} if Ms is None else (int(m) for m in Ms))
    if Ms and Ms[-1] > expansion.M:
        raise ValueError(f"window M = {Ms[-1]} exceeds the expansion's M = {expansion.M}")
    target = expansion.f.coeffs
    acc = expansion.start
    out = []
    i = 0
    for M in Ms:
        while i < len(discs) and abs(discs[i]) <= M:
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
        bari_markus_tail=expansion.report.tail_sum,
        f_norm=expansion.f.norm,
        trial_excursions=tuple(excursions),
        trial_terminals=tuple(terminals),
    )
