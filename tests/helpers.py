"""Values the tests build and the library never needs."""

import tracemalloc

import numpy as np

from diracproj.operator import basis_index_set, build_operator
from diracproj.potential import PotentialSpec


def zero_potential(max_mode: int = 0) -> PotentialSpec:
    """V = 0, with its support bound set to max_mode."""
    return PotentialSpec({}, {}, {}, {}, max_mode)


def free_matrix(bc: str, n: int, K: int) -> np.ndarray:
    """The dense free projection P_n^0: the coordinate projection onto the basis rows of n."""
    return np.diag([1.0 + 0j if m == n else 0j for m, _ in basis_index_set(bc, K).indices])


def projection_matrix(p) -> np.ndarray:
    """The dense P = left @ right of a ProjectionResult; the library applies P only in factored form."""
    return p.left @ p.right


def traced_peak(spec: PotentialSpec, bc: str, K: int, steps) -> float:
    """tracemalloc peak of a fresh build_operator(spec, bc, K) followed by
    steps(op), in dim x dim complex matrices (dim^2 * 16 bytes)."""
    tracemalloc.start()
    try:
        op = build_operator(spec, bc, K)
        steps(op)
        return tracemalloc.get_traced_memory()[1] / (16 * op.dim**2)
    finally:
        tracemalloc.stop()
