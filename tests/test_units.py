import dataclasses

import pytest
from hypothesis import given, strategies as st

from gravshift.errors import DimensionError, DomainError
from gravshift.units import (
    CONSTANTS,
    MASS,
    Dimension,
    Quantity,
    weak_field_ratio,
)


class TestConstants:
    def test_all_strictly_positive(self):
        for value in dataclasses.asdict(CONSTANTS).values():
            assert value > 0.0

    def test_codata_values(self):
        d = dataclasses.asdict(CONSTANTS)
        assert d["G"] == 6.67430e-11
        assert d["c"] == 299792458.0
        assert d["h"] == 6.62607015e-34
        assert d["hbar"] == 1.054571817e-34
        assert d["alpha"] == 7.2973525693e-3
        assert d["m_electron"] == 9.1093837015e-31
        assert d["eV"] == 1.602176634e-19

    def test_alpha_consistent_with_fine_structure_scale(self):
        # alpha is stored, not derived; sanity check it is the usual ~1/137
        assert CONSTANTS.alpha == pytest.approx(1.0 / 137.0359991, rel=1e-6)

    def test_c_squared_is_c_times_c(self):
        assert CONSTANTS.c_squared == 299792458.0 * 299792458.0


class TestQuantity:
    def test_rejects_nan_and_inf(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(DomainError, match=f"quantity value must be finite, got {bad!r}"):
                Quantity(bad, MASS)

    def test_dim_must_be_a_dimension(self):
        with pytest.raises(DimensionError) as info:
            Quantity(1.0, "kg")
        assert str(info.value) == "dim must be a Dimension, got str"

    def test_add_requires_same_dimension(self):
        with pytest.raises(DimensionError):
            Quantity(1.0, Dimension(length=1)) + Quantity(1.0, MASS)

    def test_compare_requires_same_dimension(self):
        with pytest.raises(DimensionError):
            Quantity(1.0, Dimension(length=1)) < Quantity(1.0, MASS)

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
        assert (q1 + q1).dim == d1
        assert (q1 * q2).value == v1 * v2


class TestWeakFieldRatio:
    """phi/c^2, where a potential leaves the dimension-tagged boundary as a float."""

    def test_is_phi_over_c_squared(self):
        phi = Quantity(-6.2565145911e7, Dimension(length=2, time=-2))
        assert weak_field_ratio(phi) == -6.2565145911e7 / (299792458.0 * 299792458.0)

    @pytest.mark.parametrize("dim, shown", [(Dimension(), "1"), (MASS, "kg"),
                                            (Dimension(length=1, time=-1), "m*s^-1")])
    def test_only_a_potential_converts(self, dim, shown):
        with pytest.raises(DimensionError) as info:
            weak_field_ratio(Quantity(1.0, dim))
        assert str(info.value) == f"phi must have dimension m^2*s^-2, got {shown}"

    @pytest.mark.parametrize("x", [1.0, -1.0, 2.0])
    def test_strong_field_refused(self, x):
        with pytest.raises(DomainError, match="outside the weak-field domain"):
            weak_field_ratio(Quantity(x * CONSTANTS.c_squared, Dimension(length=2, time=-2)))
