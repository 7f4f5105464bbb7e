"""Values the tests build and the library never needs."""

import tracemalloc

import numpy as np

from diracproj.operator import build_operator
from diracproj.potential import PotentialSpec


def zero_potential(max_mode: int = 0) -> PotentialSpec:
    """V = 0, with its support bound set to max_mode."""
    return PotentialSpec({}, {}, {}, {}, max_mode)


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
