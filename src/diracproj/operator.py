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

A truncation is held as its nonzeros, one coefficient per anti-diagonal of
each block: about 10 a row for the benchmark potentials.  The dense L is
formed only by OperatorMatrix.dense(), fresh for each LAPACK or BLAS call
that takes it, so no dense L outlives its call.  In units of one dim x dim
complex matrix, the largest step is zgeev itself, about 2.3 (L, the
eigenvectors and its workspace).  The eigenbasis inverse holds V and V^{-1}
(2 plus zgetri's workspace), and eigen's residual gate and the condition
number's 1-norms work one column block of dim/COLUMN_BLOCKS at a time.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

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
# eigen's residual gate and the condition number's 1-norms take the columns
# in this many blocks: each temporary is a fraction of dim x dim
COLUMN_BLOCKS = 8


class EigenResidualError(Exception):
    """Eigendecomposition failed its backward-error check."""


def _lattice_range(bc: str, K: int) -> range:
    validate_bc(bc)
    if K < 0:
        raise ValueError("K must be nonnegative")
    if bc == PER_PLUS:
        return range(-2 * K, 2 * K + 1, 2)
    if bc == PER_MINUS:
        return range(-2 * K - 1, 2 * K + 2, 2)
    return range(-K, K + 1)


def lattice_points(bc: str, K: int) -> tuple[int, ...]:
    """Free-eigenvalue lattice kept by a size-K truncation, ascending."""
    return tuple(_lattice_range(bc, K))


def lattice_step(bc: str) -> int:
    """Spacing of bc's lattice, which is also its number of basis channels per point."""
    return 1 if validate_bc(bc) == DIRICHLET else 2


def disc_centers(bc: str, limit: float) -> tuple[int, ...]:
    """Lattice points n with |n| <= limit, ascending (disc centers)."""
    lattice = _lattice_range(bc, max(math.ceil(limit), 0))
    # the lattice is symmetric, so as many points lie above limit as below
    # -limit: ceil((-limit - start) / step) of them, in exact floor division
    cut = max(-int((limit + lattice.start) // lattice.step), 0)
    return tuple(lattice[cut : len(lattice) - cut])


@dataclass(frozen=True)
class BasisIndexSet:
    """Ordered index set (n, channel) for one truncation, set by bc and K.

    Channels are 1 and 2 for the periodic couplings (the two exponential
    channels) and 0 for the Dirichlet-type coupling (the combined g_n
    system).  Ordering: ascending n, lower channel first.
    """

    bc: str
    K: int

    @cached_property
    def points(self) -> tuple[int, ...]:
        return lattice_points(self.bc, self.K)

    @cached_property
    def channels(self) -> tuple[int, ...]:
        return (0,) if lattice_step(self.bc) == 1 else (1, 2)

    @cached_property
    def indices(self) -> tuple[tuple[int, int], ...]:
        return tuple((n, ch) for n in self.points for ch in self.channels)

    @cached_property
    def dim(self) -> int:
        # by arithmetic, also past len()'s range: the lattice is not built
        lattice = _lattice_range(self.bc, self.K)
        return -((lattice.start - lattice.stop) // lattice.step) * lattice_step(self.bc)

    @cached_property
    def swap(self) -> np.ndarray:
        """Rows of S, the channel swap at each point: S L is complex symmetric for every build_operator L."""
        return np.arange(self.dim).reshape(-1, len(self.channels))[:, ::-1].ravel()

    @property
    def trusted_limit(self) -> float:
        return self.K / 2

    def position(self, n: int, channel: int) -> int:
        """Row of (n, channel), by index arithmetic: the lattice step equals the channel count."""
        step = len(self.channels)
        slot, offset = divmod(n - self.points[0], step)
        if offset or not 0 <= slot < len(self.points) or channel not in self.channels:
            raise KeyError(f"index (n={n}, channel={channel}) not in the {self.bc} truncation at K={self.K}")
        return step * slot + self.channels.index(channel)

    def free_diagonal(self) -> np.ndarray:
        return np.array([n for n, _ in self.indices], dtype=float)


def basis_index_set(bc: str, K: int) -> BasisIndexSet:
    basis = BasisIndexSet(bc, K)
    _ = basis.dim  # refuses an unknown bc or a negative K
    return basis


@dataclass(eq=False)
class OperatorMatrix:
    """A truncation of an operator in a BasisIndexSet ordering, held as its
    nonzero entries: values[k] sits at (rows[k], cols[k]), in row-major
    order.  The values given at one position are summed in the order given,
    and the zeros of the sums dropped.

    dense() forms the dim x dim matrix, fresh on every call, as the scratch
    input of one LAPACK or BLAS call, which may overwrite it.  Carries a lazy
    eigendecomposition cache so repeated contour work on the same operator
    diagonalizes once.
    """

    basis: BasisIndexSet
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    _eig_cache: tuple | None = field(default=None, repr=False, compare=False)
    _aux_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        rows, cols = np.asarray(self.rows, dtype=np.intp), np.asarray(self.cols, dtype=np.intp)
        values = np.asarray(self.values, dtype=complex)
        if not (rows.ndim == 1 and rows.shape == cols.shape == values.shape):
            raise ValueError("rows, cols and values must be vectors of one length")
        if not (np.all((0 <= rows) & (rows < self.dim)) and np.all((0 <= cols) & (cols < self.dim))):
            raise ValueError(f"entry positions must lie in the {self.dim} x {self.dim} matrix")
        flat = rows * self.dim + cols
        order = np.argsort(flat, kind="stable")
        flat, starts = np.unique(flat[order], return_index=True)
        values = np.add.reduceat(values[order], starts) if starts.size else values
        keep = values != 0
        self.rows, self.cols, self.values = flat[keep] // self.dim, flat[keep] % self.dim, values[keep]

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def hs_norm(self) -> float:
        # an unthreaded in-place sum of squares; an overflow reads inf, which fails eigen's gate
        flat = self.values.view(float)
        with np.errstate(over="ignore"):
            return math.sqrt(np.einsum("i,i->", flat, flat))

    def dense(self) -> np.ndarray:
        """The dim x dim matrix, fresh and Fortran-ordered, for one LAPACK or BLAS call to use up."""
        out = np.zeros((self.dim, self.dim), dtype=complex, order="F")
        out[self.rows, self.cols] = self.values
        return out


def _refuse_oversized(basis: BasisIndexSet) -> None:
    """Raise MemoryError, naming the size, when the dim x dim complex matrix
    that dense() forms cannot be allocated; the lattice is not built."""
    try:
        np.empty((basis.dim, basis.dim), dtype=complex)
    except (MemoryError, ValueError):  # ValueError: past numpy's largest array
        raise MemoryError(
            f"the {basis.bc} truncation at K = {basis.K} has dim {basis.dim}: its dense "
            f"{basis.dim} x {basis.dim} complex matrix needs {16 * basis.dim**2:.3g} bytes"
        ) from None


def _hankel_nonzeros(coeff, max_mode: int, bc: str, K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lattice index pairs (i, k) and values coeff(n_i + n_k) of the nonzero
    entries of the Hankel table over bc's size-K lattice; zero off
    |m| <= max_mode.  One coefficient per anti-diagonal i + k = t: the work
    is the number of nonzeros, and a huge max_mode costs nothing."""
    lattice = _lattice_range(bc, K)
    size = len(lattice)
    sums = range(2 * lattice.start, 2 * lattice[-1] + 1, lattice.step)  # n_i + n_k on anti-diagonal t
    table = np.array([coeff(m) if abs(m) <= max_mode else 0 for m in sums], dtype=complex)
    t = np.flatnonzero(table)
    first = np.maximum(t - size + 1, 0)
    counts = np.minimum(t, size - 1) - first + 1
    owner = np.repeat(np.arange(len(t)), counts)
    i = first[owner] + np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return i, t[owner] - i, table[t[owner]]


def build_v(spec: PotentialSpec, bc: str, K: int) -> OperatorMatrix:
    basis = basis_index_set(bc, K)
    _refuse_oversized(basis)
    if bc == DIRICHLET:
        # entry (k, n) couples g_n into g_k through W(k + n)
        return OperatorMatrix(basis, *_hankel_nonzeros(lambda m: dirichlet_w(spec, m), spec.max_mode, bc, K))
    # channel 1 feeds channel 2 through q(k + n), channel 2 feeds channel 1
    # through p(-k - n); the basis interleaves (n, 1), (n, 2)
    q_at, q_from, q_values = _hankel_nonzeros(spec.q, spec.max_mode, bc, K)
    p_at, p_from, p_values = _hankel_nonzeros(lambda m: spec.p(-m), spec.max_mode, bc, K)
    rows, cols = np.concatenate([2 * q_at + 1, 2 * p_at]), np.concatenate([2 * q_from, 2 * p_from + 1])
    return OperatorMatrix(basis, rows, cols, np.concatenate([q_values, p_values]))


def build_operator(spec: PotentialSpec, bc: str, K: int) -> OperatorMatrix:
    v = build_v(spec, bc, K)
    # the free part is diagonal: summed onto V's diagonal entries, as a dense in-place sum would be
    index = np.arange(v.dim)
    rows, cols = np.concatenate([v.rows, index]), np.concatenate([v.cols, index])
    return OperatorMatrix(v.basis, rows, cols, np.concatenate([v.values, v.basis.free_diagonal()]))


def _column_blocks(dim: int) -> list[slice]:
    width = -(-dim // COLUMN_BLOCKS)
    return [slice(start, start + width) for start in range(0, dim, width)]


def eigen(op: OperatorMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the truncation, cached on the operator.

    Returns (values, vectors) with unit-norm columns sorted by (Re, Im).
    Raises EigenResidualError unless every backward residual is within
    EIGEN_RESIDUAL_TOL times the operator's HS norm, and that norm is finite.
    """
    if op._eig_cache is None:
        vals, vecs = scipy.linalg.eig(op.dense(), overwrite_a=True)
        order = np.lexsort((vals.imag, vals.real))
        vals = vals[order]
        vecs = vecs[:, order]
        scale = max(op.hs_norm, 1.0)
        # in scipy's BLAS, next to eig (see eigenbasis_inverse), one column block
        # at a time: L V_b - V_b diag(vals_b) overwrites its one temporary
        matrix = op.dense()
        residuals = []
        for b in _column_blocks(op.dim):
            vecs[:, b] /= np.linalg.norm(vecs[:, b], axis=0)
            r = scipy.linalg.blas.zgemm(1.0, matrix, vecs[:, b], beta=-1.0, c=vecs[:, b] * vals[b], overwrite_c=1)
            pairs = r.T.view(float)  # a row of real and imaginary parts per column, squared and summed in place
            residuals.append(math.sqrt(np.einsum("ij,ij->i", pairs, pairs).max()))
        del matrix
        residual = np.max(residuals)
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
            vinv = eigenbasis_inverse(op)
        except np.linalg.LinAlgError:
            op._aux_cache["cond"] = np.inf
        else:
            # the largest column sum, one column block at a time
            norms = [np.max([np.linalg.norm(x[:, b], 1) for b in _column_blocks(op.dim)]) for x in (vecs, vinv)]
            op._aux_cache["cond"] = float(norms[0] * norms[1])
    return op._aux_cache["cond"]


def eigenbasis_inverse(op: OperatorMatrix) -> np.ndarray:
    """V^{-1} by one zgetrf and one zgetri in place on a row-major copy of V,
    which is V^T in LAPACK's column-major order: (V^T)^{-1} = (V^{-1})^T
    overwrites it, so the copy ends as V^{-1}, row-major as numpy's inv
    returns it, and nothing else of size dim x dim is formed.  Runs in
    scipy's OpenBLAS, whose thread pool eig already holds; raises
    np.linalg.LinAlgError when V is singular."""
    if "vinv" not in op._aux_cache:
        _, vecs = eigen(op)
        vinv = np.array(vecs, order="C")
        lapack = scipy.linalg.lapack
        _, pivots, info = lapack.zgetrf(vinv.T, overwrite_a=1)
        if info == 0:
            lwork = int(lapack.zgetri_lwork(op.dim)[0].real)
            _, info = lapack.zgetri(vinv.T, pivots, lwork=lwork, overwrite_lu=1)
        if info > 0:
            raise np.linalg.LinAlgError(f"eigenvector basis is singular (zero pivot {info})")
        op._aux_cache["vinv"] = vinv
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
    two distinct roots.  Raises ValueError when bc - ad or the
    discriminant is not finite.
    """
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    det = b * c - a * d
    try:
        disc = (b + c) ** 2 - 4 * det  # equals (b - c)^2 + 4ad
    except OverflowError:  # complex ** raises where * overflows to inf
        disc = complex(math.inf)
    if not (cmath.isfinite(det) and cmath.isfinite(disc)):
        raise ValueError(f"the characteristic quadratic is not finite: bc - ad = {det}, discriminant {disc}")
    root = np.sqrt(complex(disc))
    z1 = (-(b + c) - root) / 2
    z2 = (-(b + c) + root) / 2
    regular = det != 0
    strictly = regular and disc != 0
    return BCClassification(regular, strictly, (complex(z1), complex(z2)), det, disc)

