import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from gravshift.errors import ConfigurationError, DomainError
from gravshift.spectra import (
    Emitter,
    NuclearScaling,
    QuantumState,
    ShiftModel,
    ShiftSign,
    effective_mass,
    fractional_shift,
    level_energy,
    nuclear_shift_sign,
    states_for_n,
    transition_frequency,
)
from gravshift.units import CONSTANTS, Quantity, kilograms, potential_m2_s2

import oracles

ELECTRON = Emitter.electron()
PHI_ZERO = potential_m2_s2(0.0)
PHI_EARTH = potential_m2_s2(oracles.point_mass_potential(oracles.M_EARTH, oracles.R_EARTH))
PHI_SUN = potential_m2_s2(oracles.point_mass_potential(oracles.M_SUN, oracles.R_SUN))

M_FREE = effective_mass(ELECTRON, PHI_ZERO)

GROUND = QuantumState.from_n_j(1, 1, 0.5)
S2_HALF = QuantumState.from_n_j(1, 2, 0.5)
S2_THREEHALF = QuantumState.from_n_j(1, 2, 1.5)


def ratio_strategy():
    # |phi|/c^2 below ~4e-4 is unresolvable at 1e-12 relative in doubles
    # (fl(1 + x) truncates x at ~1.1e-16 absolute), so draw the weak-field
    # domain from 3e-3 up to 0.5.
    return st.floats(min_value=3e-3, max_value=0.5)


def state_strategy():
    return st.builds(
        QuantumState.from_n_j,
        st.integers(min_value=1, max_value=40),
        st.shared(st.integers(min_value=1, max_value=6), key="n"),
        st.shared(st.integers(min_value=1, max_value=6), key="n").flatmap(
            lambda n: st.integers(min_value=0, max_value=n - 1).map(lambda k: k + 0.5)
        ),
    )


class TestEffectiveMass:
    def test_free_particle_keeps_rest_mass(self):
        m = effective_mass(ELECTRON, PHI_ZERO)
        assert m.value.value == ELECTRON.rest_mass.value

    def test_earth_surface_fraction(self):
        m = effective_mass(ELECTRON, PHI_EARTH)
        ratio = m.value.value / ELECTRON.rest_mass.value
        assert ratio == pytest.approx(1.0 - 6.961311310505493e-10, rel=1e-15)

    def test_sun_surface_fraction(self):
        m = effective_mass(ELECTRON, PHI_SUN)
        ratio = m.value.value / ELECTRON.rest_mass.value
        assert ratio == pytest.approx(1.0 - 2.1225987775107756e-06, rel=1e-12)

    def test_strong_field_rejected(self):
        with pytest.raises(DomainError):
            effective_mass(ELECTRON, potential_m2_s2(-oracles.C2))

    def test_positive_potential_rejected(self):
        with pytest.raises(DomainError):
            effective_mass(ELECTRON, potential_m2_s2(1.0))

    @given(x1=ratio_strategy(), x2=ratio_strategy())
    @example(x1=0.003, x2=0.0030000000000000005)
    def test_deeper_potential_means_smaller_mass(self, x1, x2):
        if x1 == x2:
            return
        lo, hi = sorted((x1, x2))
        m_shallow = effective_mass(ELECTRON, potential_m2_s2(-lo * oracles.C2))
        m_deep = effective_mass(ELECTRON, potential_m2_s2(-hi * oracles.C2))
        assert m_shallow.value.value < ELECTRON.rest_mass.value
        # ratios closer than the 1e-12 resolution may round to one mass
        if hi - lo > 1e-12 * hi:
            assert m_deep.value.value < m_shallow.value.value
        else:
            assert m_deep.value.value <= m_shallow.value.value


class TestMassDefect:
    """The mass lost to binding, m - m_eff = m*|phi|/c^2, that `spectrum` prints."""

    @staticmethod
    def defect(emitter, phi):
        return emitter.rest_mass.value - effective_mass(emitter, phi).value.value

    def test_zero_at_zero_potential(self):
        assert self.defect(ELECTRON, PHI_ZERO) == 0.0

    def test_earth_surface_value(self):
        dm = self.defect(ELECTRON, PHI_EARTH)
        expected = oracles.M_ELECTRON * 6.961311310505493e-10
        assert dm == pytest.approx(expected, rel=1e-9)
        assert dm == pytest.approx(6.34e-40, rel=1e-2)

    @given(x=st.floats(min_value=1e-12, max_value=0.5))
    def test_defect_plus_effective_recovers_rest_mass(self, x):
        phi = potential_m2_s2(-x * oracles.C2)
        dm = self.defect(ELECTRON, phi)
        m_eff = effective_mass(ELECTRON, phi).value.value
        assert dm + m_eff == ELECTRON.rest_mass.value
        assert dm >= 0.0


class TestQuantumState:
    def test_closure_relation_holds(self):
        s = QuantumState(Z=1, n_prime=1, j=0.5, n=2)
        assert s.n_prime + s.j + 0.5 == s.n

    def test_rejects_inconsistent_n(self):
        with pytest.raises(ConfigurationError):
            QuantumState(Z=1, n_prime=1, j=0.5, n=3)

    def test_rejects_integer_j(self):
        with pytest.raises(ConfigurationError):
            QuantumState(Z=1, n_prime=1, j=1.0, n=2)

    def test_rejects_negative_radial_number(self):
        with pytest.raises(ConfigurationError):
            QuantumState(Z=1, n_prime=-1, j=0.5, n=0)

    def test_rejects_bad_z(self):
        with pytest.raises(ConfigurationError):
            QuantumState(Z=0, n_prime=0, j=0.5, n=1)

    def test_rejects_alpha_z_above_one(self):
        with pytest.raises(DomainError, match="perturbative"):
            level_energy(QuantumState(Z=138, n_prime=0, j=0.5, n=1), M_FREE)

    def test_from_n_j_rejects_j_too_large(self):
        with pytest.raises(ConfigurationError):
            QuantumState.from_n_j(1, 1, 1.5)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_enumeration_yields_n_states(self, n):
        states = states_for_n(1, n)
        assert len(states) == n
        assert len({s.j for s in states}) == n
        assert all(s.n == n for s in states)


class TestLevelEnergy:
    def test_ground_state(self):
        e = level_energy(GROUND, M_FREE)
        e_ev = float(e / CONSTANTS.eV)
        assert e_ev == pytest.approx(
            oracles.level_energy_direct(1, 1, 0.5, oracles.M_ELECTRON) / oracles.EV,
            rel=1e-12,
        )
        # leading term times (1 + alpha^2/4), the n=1 closed form
        rydberg = oracles.ALPHA**2 * oracles.M_ELECTRON * oracles.C2 / 2.0
        assert e.value == pytest.approx(rydberg * (1.0 + oracles.ALPHA**2 / 4.0), rel=1e-12)
        assert e_ev == pytest.approx(13.6059, rel=1e-5)

    def test_n2_fine_structure_splitting(self):
        split = level_energy(S2_HALF, M_FREE) - level_energy(S2_THREEHALF, M_FREE)
        expected = oracles.fine_structure_splitting_direct(1, 2, 0.5, 1.5, oracles.M_ELECTRON)
        assert split.value == pytest.approx(expected, rel=1e-9)
        assert split.value / oracles.EV == pytest.approx(4.53e-5, rel=5e-3)
        assert split.value / oracles.H == pytest.approx(10.95e9, rel=5e-4)

    def test_linear_in_effective_mass(self):
        half = effective_mass(Emitter(kilograms(oracles.M_ELECTRON / 2.0)), PHI_ZERO)
        for state in (GROUND, S2_HALF, S2_THREEHALF):
            assert level_energy(state, half).value == level_energy(state, M_FREE).value / 2.0

    def test_binding_decreases_with_j_at_fixed_n(self):
        for n in (2, 3, 4):
            energies = [level_energy(s, M_FREE).value for s in states_for_n(1, n)]
            assert energies == sorted(energies, reverse=True)

    def test_binding_decreases_with_n_at_fixed_j(self):
        energies = [
            level_energy(QuantumState.from_n_j(1, n, 0.5), M_FREE).value
            for n in (1, 2, 3, 4)
        ]
        assert energies == sorted(energies, reverse=True)

    def test_strictly_positive(self):
        for n in (1, 2, 5):
            for s in states_for_n(3, n):
                assert level_energy(s, M_FREE).value > 0.0


class TestTransitionFrequency:
    def test_lyman_alpha(self):
        nu = transition_frequency(S2_HALF, GROUND, M_FREE)
        expected = (
            oracles.level_energy_direct(1, 1, 0.5, oracles.M_ELECTRON)
            - oracles.level_energy_direct(1, 2, 0.5, oracles.M_ELECTRON)
        ) / oracles.H
        assert nu.value == pytest.approx(expected, rel=1e-12)
        assert nu.value == pytest.approx(2.466e15, rel=1e-3)

    def test_same_state_rejected(self):
        with pytest.raises(DomainError):
            transition_frequency(GROUND, GROUND, M_FREE)

    def test_wrong_ordering_rejected(self):
        with pytest.raises(DomainError):
            transition_frequency(GROUND, S2_HALF, M_FREE)

    def test_z_mismatch_rejected(self):
        other = QuantumState.from_n_j(2, 2, 0.5)
        with pytest.raises(ConfigurationError):
            transition_frequency(other, GROUND, M_FREE)

    def test_alpha_z_guard_uses_given_constants(self):
        # alpha*Z = 1 under these constants, though only 0.0146 under CODATA
        strong = dataclasses.replace(CONSTANTS, alpha=Quantity(0.5))
        upper = QuantumState.from_n_j(2, 2, 0.5)
        lower = QuantumState.from_n_j(2, 1, 0.5)
        with pytest.raises(DomainError, match=r"alpha\*Z = 1.000 >= 1"):
            transition_frequency(upper, lower, M_FREE, strong)

    def test_linear_in_effective_mass(self):
        half = effective_mass(Emitter(kilograms(oracles.M_ELECTRON / 2.0)), PHI_ZERO)
        assert (
            transition_frequency(S2_HALF, GROUND, half).value
            == transition_frequency(S2_HALF, GROUND, M_FREE).value / 2.0
        )


class TestFractionalShift:
    def test_equipotential_is_zero_for_every_model(self):
        phi = potential_m2_s2(-1e5)
        for model in ShiftModel:
            assert float(fractional_shift(model, phi, phi)) == 0.0

    def test_tower_emitter_model(self):
        phi_above = potential_m2_s2(
            oracles.point_mass_potential(oracles.M_EARTH, oracles.R_EARTH + 22.5)
        )
        shift = float(fractional_shift(ShiftModel.EMITTER_MASS_DEFECT, PHI_EARTH, phi_above))
        exact = oracles.G * oracles.M_EARTH * (
            1.0 / (oracles.R_EARTH + 22.5) - 1.0 / oracles.R_EARTH
        ) / oracles.C2
        # the subtraction of two ~6.26e7 potentials leaves ~5e-11 relative noise
        assert shift == pytest.approx(exact, rel=1e-9)
        assert shift == pytest.approx(-oracles.G_STANDARD * 22.5 / oracles.C2, rel=2e-3)
        assert shift < 0.0

    def test_double_effect_is_exactly_twice(self):
        phi_above = potential_m2_s2(
            oracles.point_mass_potential(oracles.M_EARTH, oracles.R_EARTH + 22.5)
        )
        single = float(fractional_shift(ShiftModel.EMITTER_MASS_DEFECT, PHI_EARTH, phi_above))
        double = float(fractional_shift(ShiftModel.DOUBLE_EFFECT, PHI_EARTH, phi_above))
        assert double == 2.0 * single

    @given(x1=ratio_strategy(), x2=ratio_strategy())
    def test_both_single_models_identical(self, x1, x2):
        phi1 = potential_m2_s2(-x1 * oracles.C2)
        phi2 = potential_m2_s2(-x2 * oracles.C2)
        emitter = float(fractional_shift(ShiftModel.EMITTER_MASS_DEFECT, phi1, phi2))
        photon = float(fractional_shift(ShiftModel.PHOTON_INTERACTION, phi1, phi2))
        double = float(fractional_shift(ShiftModel.DOUBLE_EFFECT, phi1, phi2))
        assert emitter == photon
        assert double == 2.0 * emitter

    def test_strong_field_rejected(self):
        with pytest.raises(DomainError):
            fractional_shift(ShiftModel.EMITTER_MASS_DEFECT,
                             potential_m2_s2(-2.0 * oracles.C2), PHI_ZERO)


class TestLinearityTheorem:
    """A line's fractional shift equals phi/c^2 for every state and transition."""

    @settings(max_examples=300, deadline=None)
    @given(
        state=state_strategy(),
        other_j_shift=st.integers(min_value=-2, max_value=2),
        n_step=st.integers(min_value=1, max_value=3),
        x=ratio_strategy(),
    )
    def test_transition_shift_equals_potential_ratio(self, state, other_j_shift, n_step, x):
        n_upper = state.n + n_step
        j_upper = state.j + other_j_shift
        if j_upper < 0.5 or j_upper + 0.5 > n_upper:
            j_upper = 0.5
        upper = QuantumState.from_n_j(state.Z, n_upper, j_upper)

        phi = potential_m2_s2(-x * oracles.C2)
        m_shifted = effective_mass(ELECTRON, phi)
        nu_free = transition_frequency(upper, state, M_FREE).value
        nu_shifted = transition_frequency(upper, state, m_shifted).value
        measured = (nu_shifted - nu_free) / nu_free
        expected = float(fractional_shift(ShiftModel.EMITTER_MASS_DEFECT, phi, PHI_ZERO))
        assert measured == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(state=state_strategy(), x=ratio_strategy())
    def test_level_shift_equals_potential_ratio(self, state, x):
        phi = potential_m2_s2(-x * oracles.C2)
        e_free = level_energy(state, M_FREE).value
        e_shifted = level_energy(state, effective_mass(ELECTRON, phi)).value
        measured = (e_shifted - e_free) / e_free
        assert measured == pytest.approx(float(phi / CONSTANTS.c_squared), rel=1e-12)


class TestNuclearShiftSign:
    def test_proportional_scaling_deep_emitter_is_red(self):
        assert nuclear_shift_sign(
            NuclearScaling.PROPORTIONAL_TO_MASS, PHI_EARTH, PHI_ZERO
        ) is ShiftSign.RED

    def test_inverse_scaling_deep_emitter_is_violet(self):
        assert nuclear_shift_sign(
            NuclearScaling.INVERSELY_PROPORTIONAL_TO_MASS, PHI_EARTH, PHI_ZERO
        ) is ShiftSign.VIOLET

    def test_equipotential_is_none(self):
        assert nuclear_shift_sign(
            NuclearScaling.PROPORTIONAL_TO_MASS, PHI_EARTH, PHI_EARTH
        ) is ShiftSign.NONE

    def test_signs_swap_when_emitter_is_higher(self):
        assert nuclear_shift_sign(
            NuclearScaling.PROPORTIONAL_TO_MASS, PHI_ZERO, PHI_EARTH
        ) is ShiftSign.VIOLET
        assert nuclear_shift_sign(
            NuclearScaling.INVERSELY_PROPORTIONAL_TO_MASS, PHI_ZERO, PHI_EARTH
        ) is ShiftSign.RED


class TestEmitter:
    def test_electron_uses_stored_constant(self):
        assert ELECTRON.rest_mass.value == CONSTANTS.m_electron.value

    def test_nucleon_mass_is_a_free_parameter(self):
        nucleon = Emitter(kilograms(1.67262192369e-27))
        m_eff = effective_mass(nucleon, PHI_EARTH)
        ratio = m_eff.value.value / nucleon.rest_mass.value
        assert ratio == pytest.approx(1.0 - 6.961311310505493e-10, rel=1e-15)

    def test_rejects_non_positive_mass(self):
        with pytest.raises(DomainError):
            Emitter(kilograms(0.0))
