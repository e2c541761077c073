"""Tests for the gate constructors."""

import cmath
import math

import numpy as np
import pytest

from qudit_qft import (
    chrestenson_gate,
    controlled_phase_matrix,
    walsh_hadamard_gate,
)
from qudit_qft import gates
from qudit_qft.gates import roots_of_unity
from qudit_qft.numerics import unitarity_residual


class TestRootOfUnity:
    """The primitive root ``roots_of_unity(1, q)`` and its powers."""

    def test_base3_value(self):
        root = roots_of_unity(1, 3)
        assert abs(root.real - (-0.5)) < 5e-4
        assert abs(root.imag - (-0.866)) < 5e-4

    def test_base2_is_minus_one(self):
        assert abs(roots_of_unity(1, 2) - (-1.0)) < 1e-15

    def test_base4_is_minus_i(self):
        assert abs(roots_of_unity(1, 4) - (-1j)) < 1e-15

    @pytest.mark.parametrize("q", range(2, 8))
    def test_power_identities(self, q):
        value = complex(roots_of_unity(1, q))
        assert abs(value ** q - 1.0) < 1e-12
        assert abs(roots_of_unity(np.arange(q), q).sum()) < 1e-12


class TestWalshHadamard:
    def test_matrix(self):
        w = walsh_hadamard_gate()
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        assert w[1, 1] == -inv_sqrt2
        np.testing.assert_array_equal(
            w, np.array([[inv_sqrt2, inv_sqrt2], [inv_sqrt2, -inv_sqrt2]])
        )

    def test_action_on_basis_zero(self):
        out = walsh_hadamard_gate() @ np.array([1.0, 0.0])
        np.testing.assert_allclose(out, np.full(2, 1 / np.sqrt(2)), atol=1e-15)

    def test_equals_base2_chrestenson(self):
        assert np.abs(walsh_hadamard_gate() - chrestenson_gate(2)).max() < 1e-12


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52,
                    reason="long double is no wider than float64 here")
class TestRootsOfUnity:
    def test_rounded_once_to_nearest(self):
        # sqrt is correctly rounded, so these are the nearest float64 values
        half_sqrt3, sqrt_half = math.sqrt(3) / 2, math.sqrt(0.5)
        expected = [complex(half_sqrt3, -0.5), complex(-half_sqrt3, -0.5),
                    complex(-sqrt_half, -sqrt_half)]
        got = [roots_of_unity(1, 12), roots_of_unity(5, 12), roots_of_unity(3, 8)]
        assert [complex(z) for z in got] == expected

    def test_scaled_chrestenson_entry(self):
        assert chrestenson_gate(2)[0, 0] == math.sqrt(0.5)
        assert chrestenson_gate(4)[0, 0] == 0.5

    def test_matches_float64_exponential(self):
        # exponents outside [0, modulus) too; the float64 reference loses
        # accuracy as its angle grows
        e = np.arange(-7, 40)
        np.testing.assert_allclose(
            roots_of_unity(e, 9), np.exp(-2j * np.pi * e / 9), rtol=0, atol=1e-14
        )

    @pytest.mark.parametrize("shape", [(), (1,), (5,), (7, 3), (4, 5, 6)])
    def test_chunks_give_the_bits_of_one_pass(self, shape, monkeypatch):
        e = np.arange(-11, int(np.prod(shape)) - 11).reshape(shape)
        whole = roots_of_unity(e, 27, 0.5)
        monkeypatch.setattr(gates, "_ROOTS_CHUNK", 4)
        chunked = roots_of_unity(e, 27, 0.5)
        assert chunked.shape == whole.shape == shape
        assert chunked.tobytes() == whole.tobytes()


class TestChrestenson:
    def test_base3_matrix(self):
        a = cmath.exp(-2j * cmath.pi / 3)
        expected = np.array(
            [[1, 1, 1], [1, a, a**2], [1, a**2, a]], dtype=complex
        ) / np.sqrt(3)
        np.testing.assert_allclose(chrestenson_gate(3), expected, atol=1e-14)

    def test_base3_entry_one_one(self):
        entry = chrestenson_gate(3)[1, 1]
        assert abs(entry - complex(-0.2887, -0.5)) < 5e-5

    @pytest.mark.parametrize("q", range(2, 8))
    def test_unitary(self, q):
        assert unitarity_residual(chrestenson_gate(q)) <= 1e-10

    @pytest.mark.parametrize("q", range(2, 8))
    def test_symmetric(self, q):
        gate = chrestenson_gate(q)
        np.testing.assert_array_equal(gate, gate.T)

    @pytest.mark.parametrize("q", range(2, 8))
    def test_first_row_and_column_uniform(self, q):
        gate = chrestenson_gate(q)
        np.testing.assert_allclose(gate[0], np.full(q, 1 / np.sqrt(q)), atol=1e-15)
        np.testing.assert_allclose(gate[:, 0], np.full(q, 1 / np.sqrt(q)), atol=1e-15)

    def test_rejects_radix_below_two(self):
        with pytest.raises(ValueError):
            chrestenson_gate(1)

    def test_builds_no_temporary_as_large_as_the_gate(self, traced_peak):
        # long-double angles, cosines and sines of all q*q entries would
        # each be as large as the gate; evaluated in chunks they are small
        chrestenson_gate(4)
        gate, peak = traced_peak(chrestenson_gate, 1024)
        assert peak <= 2 * gate.nbytes


class TestControlledPhase:
    def test_diagonal_unit_modulus(self):
        gate = controlled_phase_matrix(3, 2)
        off_diagonal = gate - np.diag(np.diag(gate))
        assert np.abs(off_diagonal).max() == 0.0
        np.testing.assert_allclose(np.abs(np.diag(gate)), 1.0, atol=1e-15)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_zero_control_leaves_target_alone(self, q):
        gate = controlled_phase_matrix(q, 2)
        np.testing.assert_array_equal(gate[:q, :q], np.eye(q))

    def test_base3_exponent_two_entry(self):
        gate = controlled_phase_matrix(3, 2)
        index = 2 * 3 + 1  # control 2, target 1
        assert abs(gate[index, index] - cmath.exp(-4j * cmath.pi / 9)) < 1e-15

    def test_base2_only_one_one_shifts(self):
        gate = controlled_phase_matrix(2, 2)
        diag = np.diag(gate)
        np.testing.assert_allclose(diag[:3], 1.0, atol=1e-15)
        assert abs(diag[3] - cmath.exp(-2j * cmath.pi / 4)) < 1e-15

    @pytest.mark.parametrize("q,s", [(2, 2), (3, 2), (4, 3), (7, 1)])
    def test_unitary(self, q, s):
        assert unitarity_residual(controlled_phase_matrix(q, s)) <= 1e-12

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            controlled_phase_matrix(3, 0)
        with pytest.raises(ValueError):
            controlled_phase_matrix(1, 2)
