"""Directional finite-difference check of an analytic gradient.

A value built from the engine's ops is piecewise smooth: each ReLU,
``minimum`` and max-pool routing decision on its tape picks one piece, and
``Tape.kink_signature`` hashes those decisions.  A central difference
across a kink measures a secant of two pieces, not the gradient, so
:func:`check_gradient` uses only steps that keep the signature.

Nothing in the program imports this module, so no timed path loads it.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

OK = "ok"
WRONG_GRADIENT = "wrong gradient"
TOO_FEW_CLEAN = "too few kink-free directions"

START_STEP = 1e-3
MIN_STEP = 1e-9          # a direction with no clean step this large is skipped
DRAWS_PER_CHECK = 4      # directions drawn at most, per clean one needed
TOLERANCE = 1e-4         # relative error at which a gradient is wrong
_REL_FLOOR = 1e-6        # the relative error's denominator near a zero slope


class Step(NamedTuple):
    """One kink-free direction: its step, both slopes and their error."""

    h: float
    analytic: float
    fd: float
    rel_err: float


class GradCheck(NamedTuple):
    """The outcome, the kink-free steps checked (a failing one last) and
    the number of directions drawn."""

    outcome: str
    steps: tuple[Step, ...]
    drawn: int


def check_gradient(value: Callable[[dict], tuple[float, str]], params: dict,
                   grads: dict, rng: np.random.Generator,
                   checks: int) -> GradCheck:
    """Check ``grads``, the gradient of ``value`` at ``params``, along
    random unit directions over every array of ``params``.

    ``value(p)`` evaluates at a dict of arrays like ``params`` and returns
    ``(value, kink_signature)``.  Per direction the step starts at
    ``START_STEP`` and halves, down to ``MIN_STEP``, until both sides have
    the base point's signature.  The base's, not merely each other's: the
    analytic gradient is the slope of the base point's piece, and two sides
    on another piece would check that piece's slope instead.

    The outcome is ``OK`` once ``checks`` directions agree, and
    ``WRONG_GRADIENT`` at the first whose relative error reaches
    ``TOLERANCE``.  If ``DRAWS_PER_CHECK * checks`` directions yield fewer
    than ``checks`` kink-free ones, it is ``TOO_FEW_CLEAN``, which says
    nothing about the gradient.
    """
    _, base = value(params)
    steps: list[Step] = []
    for drawn in range(1, DRAWS_PER_CHECK * checks + 1):
        direction = {k: rng.standard_normal(np.shape(v)) for k, v in params.items()}
        norm = math.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
        direction = {k: d / norm for k, d in direction.items()}
        h = START_STEP
        while h >= MIN_STEP:
            fp, sig = value({k: v + h * direction[k] for k, v in params.items()})
            if sig == base:
                fm, sig = value({k: v - h * direction[k] for k, v in params.items()})
                if sig == base:
                    break
            h /= 2
        else:
            continue
        analytic = sum(float(np.sum(grads[k] * d)) for k, d in direction.items())
        fd = (fp - fm) / (2 * h)
        rel = abs(fd - analytic) / max(abs(fd), abs(analytic), _REL_FLOOR)
        steps.append(Step(h, analytic, fd, rel))
        if not rel < TOLERANCE:  # NaN included
            return GradCheck(WRONG_GRADIENT, tuple(steps), drawn)
        if len(steps) == checks:
            return GradCheck(OK, tuple(steps), drawn)
    return GradCheck(TOO_FEW_CLEAN, tuple(steps), DRAWS_PER_CHECK * checks)
