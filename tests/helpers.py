"""Values the tests build and the library never needs."""

import tracemalloc

import numpy as np

from diracproj.operator import BasisIndexSet, build_operator
from diracproj.potential import PotentialSpec, random_potential


def zero_potential(max_mode: int = 0) -> PotentialSpec:
    """V = 0, with its support bound set to max_mode."""
    return PotentialSpec({}, {}, {}, {}, max_mode)


def circle_samples(center, radius: float, count: int) -> np.ndarray:
    """The grid center + radius e^{2 pi i k / count}, k < count, that the
    circle-maximum oracles sample (the library reads the real points alone)."""
    theta = 2 * np.pi * np.arange(count) / count
    return center + radius * np.exp(1j * theta)


def structured_potential(kind: str) -> PotentialSpec:
    """One potential of each structure the Gaussian draws never produce,
    from random_potential(11, norm=0.8) where it needs coefficients."""
    full = random_potential(11, norm=0.8)
    if kind == "real":  # P and Q real-valued on [0, pi]: c(-m) = conj c(m)
        def real(c):
            return {m: (c(m) + c(-m).conjugate()) / 2 for m in range(-full.max_mode, full.max_mode + 1)}

        return PotentialSpec.from_coefficients(real(full.p), real(full.q), full.max_mode)
    return {
        "zero": zero_potential(),
        "p_only": PotentialSpec(full.p_even, {}, full.p_odd, {}, full.max_mode),
        "q_only": PotentialSpec({}, full.q_even, {}, full.q_odd, full.max_mode),
        "constant": PotentialSpec(p_even={0: 1.0}, q_even={0: 1.0}, p_odd={}, q_odd={}, max_mode=0),
        "scaled_random": full.scaled(2.5),
    }[kind]


STRUCTURED = ("p_only", "q_only", "real", "constant", "scaled_random")


def free_matrix(bc: str, n: int, K: int) -> np.ndarray:
    """The dense free projection P_n^0: the coordinate projection onto the basis rows of n."""
    return np.diag([1.0 + 0j if m == n else 0j for m, _ in BasisIndexSet(bc, K).indices])


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
