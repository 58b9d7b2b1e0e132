import pytest
from hypothesis import given, strategies as st

from gravshift.errors import DimensionError, DomainError
from gravshift.units import (
    CONSTANTS,
    DIMENSIONLESS,
    ENERGY,
    FREQUENCY,
    LENGTH,
    MASS,
    POTENTIAL,
    TIME,
    VELOCITY,
    ConstantSet,
    Dimension,
    Quantity,
    metres,
)

import oracles


class TestConstants:
    def test_all_strictly_positive(self):
        for value in CONSTANTS.as_si_dict().values():
            assert value > 0.0

    def test_codata_values(self):
        d = CONSTANTS.as_si_dict()
        assert d["G"] == 6.67430e-11
        assert d["c"] == 299792458.0
        assert d["h"] == 6.62607015e-34
        assert d["hbar"] == 1.054571817e-34
        assert d["alpha"] == 7.2973525693e-3
        assert d["m_electron"] == 9.1093837015e-31
        assert d["eV"] == 1.602176634e-19

    def test_alpha_consistent_with_fine_structure_scale(self):
        # alpha is stored, not derived; sanity check it is the usual ~1/137
        assert CONSTANTS.alpha.value == pytest.approx(1.0 / 137.0359991, rel=1e-6)

    def test_rejects_non_positive(self):
        good = CONSTANTS
        with pytest.raises(DomainError):
            ConstantSet(
                G=Quantity(-1.0, good.G.dim), c=good.c, h=good.h, hbar=good.hbar,
                alpha=good.alpha, m_electron=good.m_electron, eV=good.eV,
            )


class TestQuantity:
    def test_rejects_nan_and_inf(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(DomainError):
                Quantity(bad, MASS)

    def test_add_requires_same_dimension(self):
        with pytest.raises(DimensionError):
            metres(1.0) + Quantity(1.0, ENERGY)

    def test_compare_requires_same_dimension(self):
        with pytest.raises(DimensionError):
            metres(1.0) < Quantity(1.0, ENERGY)

    def test_float_only_for_dimensionless(self):
        assert float(Quantity(0.25)) == 0.25
        with pytest.raises(DimensionError):
            float(metres(1.0))

    def test_named_dimension_relations(self):
        assert POTENTIAL / (VELOCITY * VELOCITY) == DIMENSIONLESS
        assert ENERGY / CONSTANTS.h.dim == FREQUENCY
        assert MASS * POTENTIAL == ENERGY
        assert LENGTH / TIME == VELOCITY

    @given(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
        st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
        st.floats(min_value=1e-6, max_value=1e6),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_dimension_algebra(self, e1, e2, v1, v2):
        d1, d2 = Dimension(*e1), Dimension(*e2)
        q1, q2 = Quantity(v1, d1), Quantity(v2, d2)
        assert (q1 * q2).dim == Dimension(e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
        assert (q1 / q2).dim == Dimension(e1[0] - e2[0], e1[1] - e2[1], e1[2] - e2[2])
        assert (q1 ** 2).dim == Dimension(2 * e1[0], 2 * e1[1], 2 * e1[2])
        assert (q1 + q1).dim == d1
        assert (q1 * q2).value == v1 * v2


class TestEnergyToFrequency:
    """nu = E/h, the conversion `spectrum` applies to each level energy."""

    @staticmethod
    def frequency(energy_j):
        return Quantity(energy_j, ENERGY) / CONSTANTS.h

    def test_zero_energy(self):
        assert self.frequency(0.0).value == 0.0

    def test_identity_via_h(self):
        one_hz = self.frequency(CONSTANTS.h.value)
        assert one_hz.dim == FREQUENCY
        assert one_hz.value == 1.0

    def test_fine_structure_scale_energy(self):
        # 4.528e-5 eV, the n=2 splitting scale
        nu = (4.528e-5 * CONSTANTS.eV) / CONSTANTS.h
        assert nu.dim == FREQUENCY
        assert nu.value == pytest.approx(4.528e-5 * oracles.EV / oracles.H, rel=1e-12)
        assert nu.value == pytest.approx(1.095e10, rel=1e-3)

    def test_sign_preserved(self):
        assert self.frequency(-1e-20).value < 0.0

    @given(st.floats(min_value=1e-30, max_value=1e10))
    def test_round_trip(self, e):
        nu = self.frequency(e)
        back = nu * CONSTANTS.h
        assert back.dim == ENERGY
        assert back.value == pytest.approx(e, rel=1e-12)
