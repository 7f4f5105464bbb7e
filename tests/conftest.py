"""Suite-wide check on the projection route choice.

The route is chosen by the 1-norm estimate ||V||_1 ||V^{-1}||_1 of the
eigenbasis condition.  Every operator a test sends through
riesz_projection is also checked against the 2-norm condition number
(an SVD): both must fall on the same side of SPECTRAL_COND_LIMIT.
"""

import numpy as np
import pytest

from diracproj import projections
from diracproj.operator import eigen


@pytest.fixture(autouse=True)
def route_choice_agrees_with_svd_condition(monkeypatch):
    estimate = projections.eigenbasis_condition
    checked = {}

    def choose(op):
        value = estimate(op)
        if id(op) not in checked:
            checked[id(op)] = op  # held, so the id is not reused within the test
            exact = float(np.linalg.cond(eigen(op)[1]))
            limit = projections.SPECTRAL_COND_LIMIT
            assert (exact > limit) == (value > limit), (
                f"route choice flips: 1-norm estimate {value:.3e}, SVD condition {exact:.3e}, limit {limit:.0e}"
            )
        return value

    monkeypatch.setattr(projections, "eigenbasis_condition", choose)
