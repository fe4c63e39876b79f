"""Independent scalar oracles of the program's array paths.

Each function here is a second route to a quantity the package computes
another way, kept for the tests to compare against:

- ``density_at`` and ``phi_at``: the logistic route, one point at a time in
  plain ``math``, against the numpy kernel ``metric._evaluate``;
- ``special_case_poles``: the closed-form companion poles at the special
  angles, against ``families.solve_pole_positions``;
- ``five_point_usable``: the kernel on every point of the curvature stencil,
  against the arm screen of ``metric.curvature_field``.
"""

import math

import numpy as np

from conemetrics import forms, metric

SQRT2 = math.sqrt(2.0)


def log_scale_at(params, z) -> float:
    """s(z) = c + sum_k r_k ln|z - p_k|^2, a compensated sum of ``2 r ln|z - p|``
    terms; raises ``EvalAtPole`` within ``POLE_GUARD`` of a pole."""
    z = forms._require_off_poles(params.form, z)
    return math.fsum(2.0 * p.residue * math.log(abs(z - p.position))
                     for p in params.form.poles) + params.c_log


def phi_at(params, z) -> float:
    """Phi(z) = 4 e^s / (1 + e^s) = 4 sigmoid(s), never exponentiating past the
    float range."""
    s = log_scale_at(params, z)
    if s >= 0.0:
        return 4.0 / (1.0 + math.exp(-s))
    t = math.exp(s)
    return 4.0 * t / (1.0 + t)


def density_at(params, z) -> float:
    """lambda^2(z) = Phi (4 - Phi) / 4 |f(z)|^2, the bell factor taken as
    4 sigmoid(s) sigmoid(-s) from e^{-|s|}."""
    t = math.exp(-abs(log_scale_at(params, z)))
    f = sum(p.residue / (complex(z) - p.position) for p in params.form.poles)
    return 4.0 * t / (1.0 + t) ** 2 * (f.real * f.real + f.imag * f.imag)


def special_case_poles(p_beta: complex) -> tuple[complex, complex]:
    """Companion poles ((1 - 2 sqrt2) p, (sqrt2 - 1) p) at the special angles.

    This scaled triple satisfies g(0) = 0 with g(z) proportional to
    z (z - 2 p_beta): its second simple zero sits at 2 p_beta, so it is the
    zeros-at-{0,1} configuration seen through the scaling z -> z / (2 p_beta),
    and the solver's minus branch at p_beta = 1/2.
    """
    p = complex(p_beta)
    return (1.0 - 2.0 * SQRT2) * p, (SQRT2 - 1.0) * p


def five_point_usable(params, z, h):
    """The curvature stencil's usable cells as first defined: the kernel on the
    centres and all four arms in one stacked call, a cell usable where each of
    its five densities is positive (false at nan).

    Returns ``(usable, s, density)``, the last two at the centres, from the stack.
    """
    z = np.asarray(z, dtype=complex)
    arms = np.array([h, -h, 1j * h, -1j * h]).reshape((4,) + (1,) * z.ndim)
    s, _, density = metric._evaluate(params, np.concatenate([z[None], z + arms]))
    return np.all(density > 0.0, axis=0), s[0], density[0]
