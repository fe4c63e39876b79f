"""Abelian differentials of the third kind with real residues.

A differential here is a finite sum of simple-pole terms on the extended
complex plane,

    omega = f(z) dz,    f(z) = sum_k  r_k / (z - p_k),

with every residue ``r_k`` real and nonzero.  The residue at infinity is
implied by the global residue theorem (``-sum r_k``) and never stored.
Because the residues are real, ``omega + conj(omega)`` is exact away from
the poles with primitive

    potential(z) = sum_k r_k * ln |z - p_k|^2,

which is the single-valued quantity every metric computation downstream
feeds on.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateForm, DuplicatePole, EvalAtPole, ZeroResidue

#: chart distance to a pole below which pointwise evaluation refuses to run;
#: quadrature downstream must see an explicit error instead of huge values.
POLE_GUARD = 1e-12


class _Infinity:
    """Marker for the point at infinity of the extended plane."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITY"


#: the distinguished point at infinity; compare with ``z is INFINITY``
INFINITY = _Infinity()

def _as_finite_complex(z) -> complex:
    """Coerce to a finite complex number, rejecting INFINITY and non-finite parts."""
    if z is INFINITY:
        raise ValueError("expected a finite point, got INFINITY")
    w = complex(z)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise ValueError(f"expected finite coordinates, got {w!r}")
    return w


@dataclass(frozen=True)
class PoleSpec:
    """A simple pole: finite position plus nonzero real residue."""

    position: complex
    residue: float

    def __post_init__(self):
        object.__setattr__(self, "position", _as_finite_complex(self.position))
        r = float(self.residue)
        if not math.isfinite(r):
            raise ValueError(f"residue must be finite, got {r!r}")
        if r == 0.0:
            raise ZeroResidue(f"zero residue at position {self.position}")
        object.__setattr__(self, "residue", r)


@dataclass(frozen=True)
class CharacterForm:
    """A third-kind differential given by its ordered list of simple poles.

    ``positions``, ``residues`` and ``zeros`` are built on first use and
    kept, since pointwise evaluation and the checks read them on every call.
    """

    poles: tuple[PoleSpec, ...]

    @cached_property
    def positions(self) -> tuple[complex, ...]:
        return tuple(p.position for p in self.poles)

    @cached_property
    def residues(self) -> tuple[float, ...]:
        return tuple(p.residue for p in self.poles)

    @cached_property
    def zeros(self) -> tuple[tuple[complex, int], ...]:
        """The finite zeros with their multiplicities; see :func:`finite_zeros`."""
        return _solve_zeros(self)


def make_form(poles) -> CharacterForm:
    """Build a :class:`CharacterForm` from ``(position, residue)`` pairs.

    Positions must be finite and pairwise distinct, residues real and
    nonzero, and at least two poles are required (a lone simple pole cannot
    have residue sum zero under the conventions of the families built here).
    """
    specs = []
    for entry in poles:
        if isinstance(entry, PoleSpec):
            specs.append(entry)
        else:
            position, residue = entry
            specs.append(PoleSpec(position, residue))
    if len(specs) < 2:
        raise DegenerateForm(f"need at least two poles, got {len(specs)}")
    for i in range(len(specs)):
        for j in range(i + 1, len(specs)):
            if specs[i].position == specs[j].position:
                raise DuplicatePole(f"poles {i} and {j} share position {specs[i].position}")
    return CharacterForm(tuple(specs))


def _require_off_poles(form: CharacterForm, z) -> complex:
    z = _as_finite_complex(z)
    d = min(abs(z - p) for p in form.positions)
    if d <= POLE_GUARD:
        raise EvalAtPole(f"evaluation at {z} is within {d:.2e} of a pole")
    return z


def _coefficient(form: CharacterForm, z):
    """f(z) at a point already checked by :func:`_require_off_poles`, or over
    a complex array of points off the poles."""
    return sum(p.residue / (z - p.position) for p in form.poles)


def _potential(form: CharacterForm, z: complex) -> float:
    """potential(z) at a point already checked by :func:`_require_off_poles`."""
    return math.fsum(2.0 * p.residue * math.log(abs(z - p.position)) for p in form.poles)


def coefficient_at(form: CharacterForm, z) -> complex:
    """The coefficient function f(z) = sum_k r_k / (z - p_k)."""
    return _coefficient(form, _require_off_poles(form, z))


def coefficient_derivative_at(form: CharacterForm, z) -> complex:
    """f'(z) = -sum_k r_k / (z - p_k)^2."""
    z = _require_off_poles(form, z)
    return -sum(p.residue / (z - p.position) ** 2 for p in form.poles)


def residue_at_infinity(form: CharacterForm) -> float:
    """Residue of the implied pole at infinity, ``-sum_k r_k`` (compensated sum)."""
    return -math.fsum(form.residues)


def potential_at(form: CharacterForm, z) -> float:
    """Primitive of omega + conj(omega): sum_k r_k * ln|z - p_k|^2.

    The additive family constant is *not* included here; it lives with the
    metric parameters.  Each term is computed as ``2 r ln|z-p|`` so extreme
    moduli neither overflow nor lose the sign of the log.
    """
    return _potential(form, _require_off_poles(form, z))


def _numerator_coefficients(form: CharacterForm) -> np.ndarray:
    """Coefficients (descending) of g(z) = sum_k r_k prod_{j != k} (z - p_j)."""
    positions = form.positions
    n = len(positions)
    acc = np.zeros(n, dtype=complex)
    for k, spec in enumerate(form.poles):
        others = [positions[j] for j in range(n) if j != k]
        acc += spec.residue * np.poly(others) if others else spec.residue
    return acc


def finite_zeros(form: CharacterForm) -> list[tuple[complex, int]]:
    """Zeros of the differential in the finite plane, with multiplicities.

    The numerator polynomial has degree at most ``len(poles) - 1``; degrees
    up to two are solved in closed form, anything larger falls back to the
    companion-matrix solver.  Roots are returned sorted by real then
    imaginary part.  They are solved once per form; each call returns a
    fresh list.
    """
    return list(form.zeros)


def _solve_zeros(form: CharacterForm) -> tuple[tuple[complex, int], ...]:
    coeffs = _numerator_coefficients(form)
    scale = max(abs(c) for c in coeffs)
    if scale == 0.0:
        raise DegenerateForm("numerator of the coefficient function vanishes identically")
    # trim leading coefficients killed by residue cancellation
    trimmed = np.array(coeffs, dtype=complex)
    while len(trimmed) > 1 and abs(trimmed[0]) <= 1e-13 * scale:
        trimmed = trimmed[1:]
    deg = len(trimmed) - 1
    if deg == 0:
        return ()
    if deg == 1:
        roots = [-trimmed[1] / trimmed[0]]
    elif deg == 2:
        a, b, c = trimmed
        disc = b * b - 4.0 * a * c
        if abs(disc) <= 1e-14 * (abs(b) ** 2 + 4.0 * abs(a) * abs(c)):
            return ((complex(-b / (2.0 * a)), 2),)
        s = cmath.sqrt(disc)
        if (b.conjugate() * s).real < 0.0:
            s = -s
        q = -0.5 * (b + s)
        roots = [q / a, c / q]
    else:
        roots = list(np.roots(trimmed))
    return tuple((complex(r), 1) for r in sorted(roots, key=lambda w: (w.real, w.imag)))
