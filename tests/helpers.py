"""Values the tests build and the library never needs."""

import numpy as np

from diracproj.potential import PotentialSpec


def zero_potential(max_mode: int = 0) -> PotentialSpec:
    """V = 0, with its support bound set to max_mode."""
    return PotentialSpec({}, {}, {}, {}, max_mode)


def projection_matrix(p) -> np.ndarray:
    """The dense P = left @ right of a ProjectionResult; the library applies P only in factored form."""
    return p.left @ p.right
