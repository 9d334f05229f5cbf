"""The check's step search and its too-few outcome, on values built to show
them.  Its sites, and the planted faults it must catch there, sit beside
the code they check."""

import numpy as np

from icasc import gradcheck
from icasc.gradcheck import check_gradient


def test_step_halves_until_both_sides_keep_the_base_signature():
    """The base point 0 sits on a piece, u = x^2 + 1e-5 x <= 1e-8, narrower
    than the first step: both sides of steps 1e-3 down to 1.25e-4 land on
    the outer piece, whose slope (1) is not the gradient (1.01).  Only at
    6.25e-5 do both sides keep the base's signature."""
    def value(p):
        x = p["x"][0]
        u = x * x + 1e-5 * x
        return 1e3 * min(u, 1e-8) + x, str(u <= 1e-8)

    result = check_gradient(value, {"x": np.zeros(1)}, {"x": np.array([1.01])},
                            np.random.default_rng(0), checks=3)
    assert result.outcome == gradcheck.OK, result
    assert [step.h for step in result.steps] == [gradcheck.START_STEP / 16] * 3
    assert result.drawn == 3


def test_signature_changing_at_every_step_is_too_few_not_wrong():
    """No step is kink-free, so even a wrong gradient goes unjudged."""
    evaluations = iter(range(10**6))

    def value(p):
        return float(np.sum(p["x"])), str(next(evaluations))

    result = check_gradient(value, {"x": np.zeros(3)}, {"x": np.full(3, 7.0)},
                            np.random.default_rng(0), checks=2)
    assert result.outcome == gradcheck.TOO_FEW_CLEAN, result
    assert result.steps == ()
    assert result.drawn == gradcheck.DRAWS_PER_CHECK * 2
