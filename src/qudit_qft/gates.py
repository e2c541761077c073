"""The gate family: roots of unity, Walsh-Hadamard, Chrestenson, phase shifts.

Sign convention, used package-wide: transforms carry ``exp(-2j*pi * ... )``
in the exponent.  The positive-sign variants are obtained as adjoints.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np


# pi to the precision of np.longdouble: a 64-bit significand on x86-64
# Linux, plain float64 on platforms whose long double is float64.
_PI = np.longdouble("3.141592653589793238462643383279502884")


def roots_of_unity(exponents, modulus: int, scale=1) -> np.ndarray:
    """``scale * exp(-2j*pi * e / modulus)`` for every integer e in ``exponents``.

    Evaluated in long double and rounded once to complex128.  In float64
    the angle alone would carry an error of up to half an ulp of 2*pi,
    several times the rounding of the result.
    """
    angle = np.asarray(exponents).astype(np.longdouble) * (
        -2 * _PI / np.longdouble(modulus)
    )
    scale = np.longdouble(scale)
    out = np.empty(angle.shape, dtype=np.complex128)
    out.real = scale * np.cos(angle)
    out.imag = scale * np.sin(angle)
    return out


@dataclass(frozen=True)
class RootOfUnity:
    """Primitive q-th root of unity ``exp(-2j*pi/q)`` together with its radix."""

    radix: int
    value: complex


def root_of_unity(q: int) -> RootOfUnity:
    """Primitive q-th root of unity under the negative-exponent convention."""
    if q < 2:
        raise ValueError("radix must be at least 2")
    return RootOfUnity(q, cmath.exp(-2j * cmath.pi / q))


def walsh_hadamard_gate() -> np.ndarray:
    """The 2x2 gate (1/sqrt(2)) [[1, 1], [1, -1]]."""
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)


def chrestenson_gate(q: int) -> np.ndarray:
    """Base-q generalization of the Walsh-Hadamard gate.

    Entry (j, k) is ``a**(j*k) / sqrt(q)`` with ``a = exp(-2j*pi/q)``; the
    first row and column are all ``1/sqrt(q)``, and q = 2 reduces to the
    Walsh-Hadamard gate.
    """
    if q < 2:
        raise ValueError("radix must be at least 2")
    k = np.arange(q)
    return roots_of_unity(np.outer(k, k) % q, q, 1 / np.sqrt(np.longdouble(q)))


def phase_shift_gate(alpha: float) -> np.ndarray:
    """Single-qubit phase shift diag(1, exp(1j*alpha))."""
    return np.array([[1.0, 0.0], [0.0, cmath.exp(1j * alpha)]], dtype=np.complex128)


def controlled_phase_matrix(q: int, denom_exp: int) -> np.ndarray:
    """Two-qudit controlled phase shift as a dense q**2 x q**2 matrix.

    Basis state (control c, target t), at compound index ``c*q + t``, picks
    up the phase ``exp(-2j*pi * c*t / q**denom_exp)``.  Control value 0
    leaves every target untouched; the gate is diagonal and symmetric in
    the roles of control and target.
    """
    if q < 2:
        raise ValueError("radix must be at least 2")
    if denom_exp < 1:
        raise ValueError("denom_exp must be at least 1")
    modulus = q ** denom_exp
    c, t = np.divmod(np.arange(q * q), q)
    phases = np.exp(-2j * np.pi * ((c * t) % modulus) / modulus)
    return np.diag(phases)
