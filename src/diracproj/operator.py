"""Fourier-basis truncations of the Dirac operator L = L0 + V.

The free operator i*diag(1,-1)*d/dx is diagonal in the exponential basis:
the vectors e1_n = (e^{-inx}, 0) and e2_n = (0, e^{inx}) both have
eigenvalue n.  Which n occur is set by the coupling of the endpoint values:

  per+  periodic      n even, both channels, eigenvalues doubly degenerate
  per-  antiperiodic  n odd, both channels, doubly degenerate
  dir   Dirichlet     every integer n, simple, eigenvector
                      g_n = (e1_n + e2_n)/sqrt(2)

A truncation keeps a symmetric window of lattice points.  K is sized so the
window's middle half (|n| <= K/2) is trusted: a disc there sees the boundary
of the truncation only through high-order coefficient chains.

The potential acts off-diagonally between the two channels for the periodic
couplings.  For the Dirichlet-type coupling, written in the g_n system, it
becomes the single Toeplitz-like family W(k + n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .potential import (
    DIRICHLET,
    PER_MINUS,
    PER_PLUS,
    PotentialSpec,
    dirichlet_w,
    validate_bc,
)

EIGEN_RESIDUAL_TOL = 1e-8


class EigenResidualError(Exception):
    """Eigendecomposition failed its backward-error check."""


def lattice_points(bc: str, K: int) -> tuple[int, ...]:
    """Free-eigenvalue lattice kept by a size-K truncation, ascending."""
    validate_bc(bc)
    if K < 0:
        raise ValueError("K must be nonnegative")
    if bc == PER_PLUS:
        return tuple(range(-2 * K, 2 * K + 1, 2))
    if bc == PER_MINUS:
        return tuple(range(-2 * K - 1, 2 * K + 2, 2))
    return tuple(range(-K, K + 1))


def disc_centers(bc: str, limit: float) -> tuple[int, ...]:
    """Lattice points n with |n| <= limit, ascending (disc centers)."""
    validate_bc(bc)
    if bc == PER_PLUS:
        step, start = 2, 0
    elif bc == PER_MINUS:
        step, start = 2, 1
    else:
        step, start = 1, 0
    top = int(limit)
    pts = [n for n in range(start, top + 1, step) if abs(n) <= limit]
    return tuple(sorted(set([-n for n in pts] + pts)))


@dataclass(frozen=True)
class BasisIndexSet:
    """Ordered index set (n, channel) for one truncation.

    Channels are 1 and 2 for the periodic couplings (the two exponential
    channels) and 0 for the Dirichlet-type coupling (the combined g_n
    system).  Ordering: ascending n, lower channel first.
    """

    bc: str
    K: int
    indices: tuple[tuple[int, int], ...]
    _positions: dict = field(repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_positions", {idx: i for i, idx in enumerate(self.indices)})

    @property
    def dim(self) -> int:
        return len(self.indices)

    @property
    def trusted_limit(self) -> float:
        return self.K / 2

    def position(self, n: int, channel: int) -> int:
        try:
            return self._positions[(n, channel)]
        except KeyError:
            raise KeyError(f"index (n={n}, channel={channel}) not in the {self.bc} truncation at K={self.K}") from None

    def free_diagonal(self) -> np.ndarray:
        return np.array([n for n, _ in self.indices], dtype=float)


def basis_index_set(bc: str, K: int) -> BasisIndexSet:
    validate_bc(bc)
    channels = (0,) if bc == DIRICHLET else (1, 2)
    indices = tuple((n, ch) for n in lattice_points(bc, K) for ch in channels)
    return BasisIndexSet(bc, K, indices)


@dataclass
class OperatorMatrix:
    """Dense truncation of an operator in a BasisIndexSet ordering.

    Carries a lazy eigendecomposition cache so repeated contour work on the
    same operator diagonalizes once.
    """

    basis: BasisIndexSet
    entries: np.ndarray
    _eig_cache: tuple | None = field(default=None, repr=False, compare=False)
    _aux_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.shape != (self.basis.dim, self.basis.dim):
            raise ValueError(f"entries must be {self.basis.dim} x {self.basis.dim}")

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def is_diagonal(self) -> bool:
        # nonzeros counted in place: no dim x dim temporary
        return np.count_nonzero(self.entries) == np.count_nonzero(np.diagonal(self.entries))

    @property
    def hs_norm(self) -> float:
        # an unthreaded in-place sum of squares; an overflow reads inf, which fails eigen's gate
        flat = self.entries.reshape(-1).view(float)
        with np.errstate(over="ignore"):
            return math.sqrt(np.einsum("i,i->", flat, flat))


def _coefficient_table(coeff, max_mode: int, sums: np.ndarray) -> np.ndarray:
    """coeff(m) at every entry of the index array sums; zero off |m| <= max_mode."""
    reach = min(max_mode, int(np.abs(sums).max(initial=0)))  # a huge max_mode costs nothing
    table = np.array([coeff(m) for m in range(-reach, reach + 1)], dtype=complex)
    idx = sums + reach
    inside = (idx >= 0) & (idx < table.size)
    return np.where(inside, table[np.where(inside, idx, 0)], 0j)


def build_v(spec: PotentialSpec, bc: str, K: int) -> OperatorMatrix:
    basis = basis_index_set(bc, K)
    ns = np.array(lattice_points(bc, K))
    sums = ns[:, None] + ns[None, :]
    if bc == DIRICHLET:
        # entry (k, n) couples g_n into g_k through W(k + n)
        w = _coefficient_table(lambda m: dirichlet_w(spec, m), spec.max_mode, sums)
        return OperatorMatrix(basis, w)
    # channel 1 feeds channel 2 through q(k + n), channel 2 feeds channel 1
    # through p(-k - n); the basis interleaves (n, 1), (n, 2)
    entries = np.zeros((basis.dim, basis.dim), dtype=complex)
    entries[1::2, 0::2] = _coefficient_table(spec.q, spec.max_mode, sums)
    entries[0::2, 1::2] = _coefficient_table(lambda m: spec.p(-m), spec.max_mode, sums)
    return OperatorMatrix(basis, entries)


def build_operator(spec: PotentialSpec, bc: str, K: int) -> OperatorMatrix:
    op = build_v(spec, bc, K)
    # the free part is diagonal: added in place, no dense free matrix or sum
    np.einsum("ii->i", op.entries)[...] += op.basis.free_diagonal()
    return op


def eigen(op: OperatorMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the truncation, cached on the operator.

    Returns (values, vectors) with unit-norm columns sorted by (Re, Im).
    Raises EigenResidualError unless every backward residual is within
    EIGEN_RESIDUAL_TOL times the operator's HS norm, and that norm is finite.
    """
    if op._eig_cache is None:
        if op.is_diagonal:
            vals = np.diagonal(op.entries).copy()
            order = np.lexsort((vals.imag, vals.real))
            vals = vals[order]
            vecs = np.eye(op.dim, dtype=complex)[:, order]
        else:
            vals, vecs = scipy.linalg.eig(op.entries)
            order = np.lexsort((vals.imag, vals.real))
            vals = vals[order]
            vecs = vecs[:, order]
            vecs = vecs / np.linalg.norm(vecs, axis=0)
        scale = max(op.hs_norm, 1.0)
        # in scipy's BLAS, next to eig (see eigenbasis_inverse)
        residual = np.linalg.norm(scipy.linalg.blas.zgemm(1.0, op.entries, vecs) - vecs * vals, axis=0).max()
        # a NaN residual fails, and so does an overflowed norm, which would pass anything
        if not residual <= EIGEN_RESIDUAL_TOL * scale < np.inf:
            raise EigenResidualError(
                f"eigendecomposition residual {residual:.3e} is not within {EIGEN_RESIDUAL_TOL:.0e} * ||L||_HS = "
                f"{EIGEN_RESIDUAL_TOL * scale:.3e}"
            )
        op._eig_cache = (vals, vecs)
    return op._eig_cache


def eigenbasis_condition(op: OperatorMatrix) -> float:
    """1-norm condition ||V||_1 ||V^{-1}||_1 of the eigenvector basis; inf if V is singular."""
    if "cond" not in op._aux_cache:
        _, vecs = eigen(op)
        try:
            op._aux_cache["cond"] = float(np.linalg.norm(vecs, 1) * np.linalg.norm(eigenbasis_inverse(op), 1))
        except np.linalg.LinAlgError:
            op._aux_cache["cond"] = np.inf
    return op._aux_cache["cond"]


def eigenbasis_inverse(op: OperatorMatrix) -> np.ndarray:
    """V^{-1} by one zgesv against the identity, as numpy's inv computes it,
    but in scipy's OpenBLAS, whose thread pool eig already holds; raises
    np.linalg.LinAlgError when V is singular."""
    if "vinv" not in op._aux_cache:
        _, vecs = eigen(op)
        eye = np.eye(op.dim, dtype=complex, order="F")
        _, _, vinv, info = scipy.linalg.lapack.zgesv(vecs, eye, overwrite_b=True)
        if info > 0:
            raise np.linalg.LinAlgError(f"eigenvector basis is singular (zgesv info {info})")
        # row-major, as numpy's inv returns it, so norms and row slices sum in the same order
        op._aux_cache["vinv"] = np.ascontiguousarray(vinv)
    return op._aux_cache["vinv"]


@dataclass(frozen=True)
class BCClassification:
    regular: bool
    strictly_regular: bool
    roots: tuple[complex, complex]
    determinant: complex
    discriminant: complex


def classify_bc(a: complex, b: complex, c: complex, d: complex) -> BCClassification:
    """Classify a two-point coupling by its characteristic quadratic.

    The coupling is regular when bc - ad != 0 and strictly regular when in
    addition (b - c)^2 + 4ad != 0, i.e. when z^2 + (b+c)z + (bc - ad) has
    two distinct roots.
    """
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    det = b * c - a * d
    disc = (b + c) ** 2 - 4 * det  # equals (b - c)^2 + 4ad
    root = np.sqrt(complex(disc))
    z1 = (-(b + c) - root) / 2
    z2 = (-(b + c) + root) / 2
    regular = det != 0
    strictly = regular and disc != 0
    return BCClassification(regular, strictly, (complex(z1), complex(z2)), det, disc)

