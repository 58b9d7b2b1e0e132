import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from gravshift.errors import DimensionError, DomainError
from gravshift.gravity import CelestialBody, FieldPoint
from gravshift.spectra import (
    QuantumState,
    ShiftModel,
    effective_mass,
    fractional_shift,
    level_energy,
    states_for_n,
    transition_frequency,
)
from gravshift.units import CONSTANTS, MASS, POTENTIAL, Dimension, Quantity

import oracles
from printed_columns import COUPLINGS


def kilograms(value):
    return Quantity(value, MASS)


def potential_m2_s2(value):
    return Quantity(value, POTENTIAL)


ELECTRON = kilograms(CONSTANTS.m_electron)
PHI_ZERO = potential_m2_s2(0.0)
PHI_EARTH = potential_m2_s2(oracles.point_mass_potential(oracles.M_EARTH, oracles.R_EARTH))
PHI_SUN = potential_m2_s2(oracles.point_mass_potential(oracles.M_SUN, oracles.R_SUN))

M_FREE = effective_mass(ELECTRON, PHI_ZERO)
#: a body of G*M/c^2 = 1 m and radius 0.25 m, for points deep in its field
COMPACT = CelestialBody("compact", oracles.C2 / oracles.G, 0.25)

GROUND = QuantumState(1, 0, 0.5)
S2_HALF = QuantumState(1, 1, 0.5)
S2_THREEHALF = QuantumState(1, 0, 1.5)


def ratio_strategy():
    # |phi|/c^2 below ~4e-4 is unresolvable at 1e-12 relative in doubles
    # (fl(1 + x) truncates x at ~1.1e-16 absolute), so draw the weak-field
    # domain from 3e-3 up to 0.5.
    return st.floats(min_value=3e-3, max_value=0.5)


def state_strategy():
    # one of the n states (n' = n - 1 - k, j = k + 1/2) of a principal number n
    n = st.shared(st.integers(min_value=1, max_value=6), key="n")
    return st.builds(
        lambda Z, n, k: QuantumState(Z, n - 1 - k, k + 0.5),
        st.integers(min_value=1, max_value=40),
        n,
        n.flatmap(lambda n: st.integers(min_value=0, max_value=n - 1)),
    )


class TestEffectiveMass:
    def test_free_particle_keeps_rest_mass(self):
        m = effective_mass(ELECTRON, PHI_ZERO)
        assert m.value == ELECTRON.value

    def test_earth_surface_fraction(self):
        m = effective_mass(ELECTRON, PHI_EARTH)
        ratio = m.value / ELECTRON.value
        assert ratio == pytest.approx(1.0 - 6.961311310505493e-10, rel=1e-15)

    def test_sun_surface_fraction(self):
        m = effective_mass(ELECTRON, PHI_SUN)
        ratio = m.value / ELECTRON.value
        assert ratio == pytest.approx(1.0 - 2.1225987775107756e-06, rel=1e-12)

    def test_strong_field_rejected(self):
        with pytest.raises(DomainError, match="outside the weak-field domain"):
            effective_mass(ELECTRON, potential_m2_s2(-oracles.C2))

    def test_positive_potential_rejected(self):
        with pytest.raises(DomainError, match=re.escape("attractive potentials (phi <= 0)")):
            effective_mass(ELECTRON, potential_m2_s2(1.0))

    @given(x1=ratio_strategy(), x2=ratio_strategy())
    @example(x1=0.003, x2=0.0030000000000000005)
    def test_deeper_potential_means_smaller_mass(self, x1, x2):
        if x1 == x2:
            return
        lo, hi = sorted((x1, x2))
        m_shallow = effective_mass(ELECTRON, potential_m2_s2(-lo * oracles.C2))
        m_deep = effective_mass(ELECTRON, potential_m2_s2(-hi * oracles.C2))
        assert m_shallow.value < ELECTRON.value
        # ratios closer than the 1e-12 resolution may round to one mass
        if hi - lo > 1e-12 * hi:
            assert m_deep.value < m_shallow.value
        else:
            assert m_deep.value <= m_shallow.value


class TestMassDefect:
    """The mass lost to binding, m - m_eff = m*|phi|/c^2, that `spectrum` prints."""

    @staticmethod
    def defect(rest_mass, phi):
        return rest_mass.value - effective_mass(rest_mass, phi).value

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
        m_eff = effective_mass(ELECTRON, phi).value
        assert dm + m_eff == ELECTRON.value
        assert dm >= 0.0


class TestQuantumState:
    def test_closure_relation_holds(self):
        s = QuantumState(Z=1, n_prime=1, j=1.5)
        assert s.n == 3
        assert s.n_prime + s.j + 0.5 == s.n

    def test_rejects_integer_j(self):
        with pytest.raises(DomainError, match="j must be a positive half-odd-integer"):
            QuantumState(Z=1, n_prime=1, j=1.0)

    def test_rejects_negative_radial_number(self):
        with pytest.raises(DomainError, match="n' must be a non-negative integer, got -1"):
            QuantumState(Z=1, n_prime=-1, j=0.5)

    def test_rejects_bad_z(self):
        with pytest.raises(DomainError, match="Z must be a positive integer, got 0"):
            QuantumState(Z=0, n_prime=0, j=0.5)

    @pytest.mark.parametrize("Z", [138, 10**400], ids=["138", "10**400"])
    def test_rejects_alpha_z_above_one_when_built(self, Z):
        # 1/alpha = 137.036: no state of Z = 138 exists to reach a level formula
        with pytest.raises(DomainError, match=(
                f"^alpha\\*Z >= 1 at Z = {Z}: outside the perturbative domain$")):
            QuantumState(Z, 0, 0.5)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_enumeration_yields_n_states(self, n):
        states = states_for_n(1, n)
        assert len(states) == n
        assert len({s.j for s in states}) == n
        assert all(s.n == n for s in states)


class TestLevelEnergy:
    def test_ground_state(self):
        e = level_energy(GROUND, M_FREE)
        e_ev = e.value / CONSTANTS.eV
        assert e_ev == pytest.approx(
            oracles.level_energy_direct(1, 1, 0.5, oracles.M_ELECTRON) / oracles.EV,
            rel=1e-12,
        )
        # leading term times (1 + alpha^2/4), the n=1 closed form
        rydberg = oracles.ALPHA**2 * oracles.M_ELECTRON * oracles.C2 / 2.0
        assert e.value == pytest.approx(rydberg * (1.0 + oracles.ALPHA**2 / 4.0), rel=1e-12)
        assert e_ev == pytest.approx(13.6059, rel=1e-5)

    def test_tagged_as_an_energy(self):
        assert level_energy(GROUND, M_FREE).dim == Dimension(mass=1, length=2, time=-2)

    def test_n2_fine_structure_splitting(self):
        split = level_energy(S2_HALF, M_FREE).value - level_energy(S2_THREEHALF, M_FREE).value
        expected = oracles.fine_structure_splitting_direct(1, 2, 0.5, 1.5, oracles.M_ELECTRON)
        assert split == pytest.approx(expected, rel=1e-9)
        assert split / oracles.EV == pytest.approx(4.53e-5, rel=5e-3)
        assert split / oracles.H == pytest.approx(10.95e9, rel=5e-4)

    def test_linear_in_effective_mass(self):
        half = effective_mass(kilograms(oracles.M_ELECTRON / 2.0), PHI_ZERO)
        for state in (GROUND, S2_HALF, S2_THREEHALF):
            assert level_energy(state, half).value == level_energy(state, M_FREE).value / 2.0

    def test_binding_decreases_with_j_at_fixed_n(self):
        for n in (2, 3, 4):
            energies = [level_energy(s, M_FREE).value for s in states_for_n(1, n)]
            assert energies == sorted(energies, reverse=True)

    def test_binding_decreases_with_n_at_fixed_j(self):
        energies = [
            level_energy(QuantumState(1, n - 1, 0.5), M_FREE).value
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

    def test_tagged_as_a_frequency(self):
        assert transition_frequency(S2_HALF, GROUND, M_FREE).dim == Dimension(time=-1)

    def test_same_state_rejected(self):
        with pytest.raises(DomainError, match="non-positive photon energy"):
            transition_frequency(GROUND, GROUND, M_FREE)

    def test_wrong_ordering_rejected(self):
        with pytest.raises(DomainError, match="non-positive photon energy"):
            transition_frequency(GROUND, S2_HALF, M_FREE)

    def test_z_mismatch_rejected(self):
        other = QuantumState(2, 1, 0.5)
        with pytest.raises(DomainError, match=re.escape("must share Z (got 2 and 1)")):
            transition_frequency(other, GROUND, M_FREE)

    def test_linear_in_effective_mass(self):
        half = effective_mass(kilograms(oracles.M_ELECTRON / 2.0), PHI_ZERO)
        assert (
            transition_frequency(S2_HALF, GROUND, half).value
            == transition_frequency(S2_HALF, GROUND, M_FREE).value / 2.0
        )

    @pytest.mark.parametrize("mass_kg", [2.3e-308, 1e-300])
    def test_subnormal_photon_energy_rejected(self, mass_kg):
        # m*dk is subnormal for neighbours near n = 1e7: at 2.3e-308 kg the
        # earth-surface shift came out 0, at 1e-300 kg 2.9e-7 off phi/c^2
        upper, lower = QuantumState(1, 10**7, 0.5), QuantumState(1, 10**7 - 1, 0.5)
        with pytest.raises(DomainError, match="photon energy of .* underflows at mass"):
            transition_frequency(upper, lower, kilograms(mass_kg))

    def test_overflowing_frequency_is_named(self):
        with pytest.raises(DomainError, match="photon energy of .* overflows at mass 1e"):
            transition_frequency(S2_HALF, GROUND, kilograms(1e308))


class TestFractionalShift:
    def test_models_are_named_by_the_cli_and_valued_by_their_couplings(self):
        assert {model.name: (model.k_e, model.k_p) for model in ShiftModel} == COUPLINGS

    def test_equipotential_is_zero_for_every_model(self, earth):
        point = FieldPoint("earth:1e3", [(earth, earth.radius_m + 1e3)])
        for model in ShiftModel:
            assert fractional_shift(model, point, point) == 0.0

    def test_tower_emitter_model(self, earth, earth_surface):
        above = FieldPoint("earth:22.5", [(earth, earth.radius_m + 22.5)])
        shift = fractional_shift(ShiftModel.emitter, earth_surface, above)
        exact, scale = oracles.fractional_shift_exact(
            [(oracles.M_EARTH, oracles.R_EARTH, oracles.R_EARTH + 22.5)])
        assert abs(shift - exact) <= 8 * math.ulp(scale)
        assert shift == pytest.approx(-oracles.G_STANDARD * 22.5 / oracles.C2, rel=2e-3)
        assert shift < 0.0

    @pytest.mark.parametrize("obs_alt", [1e-3, 1e4, -1e-3])
    def test_short_towers_keep_every_digit(self, earth, obs_alt):
        # no two potentials are subtracted, so a 1 mm tower loses nothing
        low = FieldPoint("low", [(earth, earth.radius_m + 1.0)])
        high = FieldPoint("high", [(earth, earth.radius_m + (1.0 + obs_alt))])
        shift = fractional_shift(ShiftModel.emitter, low, high)
        exact, scale = oracles.fractional_shift_exact(
            [(oracles.M_EARTH, oracles.R_EARTH + 1.0, oracles.R_EARTH + (1.0 + obs_alt))])
        assert abs(shift - exact) <= 8 * math.ulp(scale)

    @pytest.mark.parametrize("r_emit, r_obs", [(1e308, 1.0), (1.0, 1e308), (1e300, 1e16)])
    def test_feeble_body_far_away_keeps_its_shift(self, r_emit, r_obs):
        # G*M/c^2 = 1e-300 m: mu/1e308 m underflows to 0, the shift does not
        feeble = CelestialBody("feeble", 1e-300 * oracles.C2 / oracles.G, 1.0)
        shift = fractional_shift(ShiftModel.emitter,
                                 FieldPoint("emit", [(feeble, r_emit)]),
                                 FieldPoint("obs", [(feeble, r_obs)]))
        exact, scale = oracles.fractional_shift_exact([(feeble.mass_kg, r_emit, r_obs)])
        assert shift != 0.0
        assert abs(shift - exact) <= 8 * math.ulp(scale)

    def test_double_effect_is_exactly_twice(self, earth, earth_surface):
        above = FieldPoint("earth:22.5", [(earth, earth.radius_m + 22.5)])
        single = fractional_shift(ShiftModel.emitter, earth_surface, above)
        double = fractional_shift(ShiftModel.double, earth_surface, above)
        assert double == 2.0 * single

    @given(x1=ratio_strategy(), x2=ratio_strategy())
    def test_both_single_models_identical(self, x1, x2):
        # 1/x m from a body with G*M/c^2 = 1 m is at phi/c^2 of about -x
        p1 = FieldPoint("p1", [(COMPACT, 1.0 / x1)])
        p2 = FieldPoint("p2", [(COMPACT, 1.0 / x2)])
        emitter = fractional_shift(ShiftModel.emitter, p1, p2)
        photon = fractional_shift(ShiftModel.photon, p1, p2)
        double = fractional_shift(ShiftModel.double, p1, p2)
        assert emitter == photon
        assert double == 2.0 * emitter

    def test_strong_field_rejected(self):
        deep = FieldPoint("deep", [(COMPACT, 0.5)])
        far = FieldPoint("far", [(COMPACT, 10.0)])
        with pytest.raises(DomainError, match="outside the weak-field domain"):
            fractional_shift(ShiftModel.emitter, deep, far)


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
        upper = QuantumState(state.Z, int(n_upper - j_upper - 0.5), j_upper)

        phi = potential_m2_s2(-x * oracles.C2)
        m_shifted = effective_mass(ELECTRON, phi)
        nu_free = transition_frequency(upper, state, M_FREE).value
        nu_shifted = transition_frequency(upper, state, m_shifted).value
        measured = (nu_shifted - nu_free) / nu_free
        assert measured == pytest.approx(phi.value / CONSTANTS.c_squared, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(state=state_strategy(), x=ratio_strategy())
    def test_level_shift_equals_potential_ratio(self, state, x):
        phi = potential_m2_s2(-x * oracles.C2)
        e_free = level_energy(state, M_FREE).value
        e_shifted = level_energy(state, effective_mass(ELECTRON, phi)).value
        measured = (e_shifted - e_free) / e_free
        assert measured == pytest.approx(phi.value / CONSTANTS.c_squared, rel=1e-12)


class TestEmitter:
    def test_nucleon_mass_is_a_free_parameter(self):
        nucleon = kilograms(1.67262192369e-27)
        m_eff = effective_mass(nucleon, PHI_EARTH)
        ratio = m_eff.value / nucleon.value
        assert ratio == pytest.approx(1.0 - 6.961311310505493e-10, rel=1e-15)

    def test_nucleon_line_shifts_red_by_phi_over_c2(self):
        # a nuclear line scales with the radiator's mass like an atomic one,
        # so a deeper emitter shows it red by the same fraction phi/c^2
        nucleon = kilograms(1.67262192369e-27)
        free = transition_frequency(S2_HALF, GROUND, effective_mass(nucleon, PHI_ZERO))
        deep = transition_frequency(S2_HALF, GROUND, effective_mass(nucleon, PHI_EARTH))
        assert deep < free
        assert (deep.value - free.value) / free.value == pytest.approx(
            PHI_EARTH.value / CONSTANTS.c_squared, rel=1e-6)

    def test_rejects_non_positive_mass(self):
        with pytest.raises(DomainError, match="emitter rest mass must be positive and finite"):
            effective_mass(kilograms(0.0), PHI_ZERO)

    @pytest.mark.parametrize("mass_kg", [1e-320, 1e-310])
    def test_rejects_subnormal_effective_mass(self, mass_kg):
        # a subnormal mass keeps too few bits for the factor 1 + phi/c^2:
        # 1e-320 kg at the solar surface used to give a shift of exactly 0
        with pytest.raises(DomainError, match="smallest normal float"):
            effective_mass(kilograms(mass_kg), PHI_SUN)

    def test_smallest_normal_mass_keeps_the_shift(self):
        rest = kilograms(2.3e-308)
        ratio = effective_mass(rest, PHI_SUN).value / rest.value
        assert ratio - 1.0 == pytest.approx(PHI_SUN.value / CONSTANTS.c_squared, rel=1e-6)

    def test_overflowing_level_energy_is_named(self):
        with pytest.raises(DomainError, match="level energy of .* overflows"):
            level_energy(GROUND, kilograms(1e308))

    @pytest.mark.parametrize("call, message", [
        (lambda: effective_mass(PHI_EARTH, PHI_ZERO),
         "rest_mass must have dimension kg, got m^2*s^-2"),
        (lambda: level_energy(GROUND, PHI_EARTH), "m_eff must have dimension kg, got m^2*s^-2"),
        (lambda: transition_frequency(S2_HALF, GROUND, PHI_EARTH),
         "m_eff must have dimension kg, got m^2*s^-2"),
        # a bare float in kg is refused at the boundary too, not taken as a mass
        (lambda: effective_mass(9.1e-31, PHI_ZERO), "rest_mass must be a Quantity, got float"),
        (lambda: level_energy(GROUND, 9.1e-31), "m_eff must be a Quantity, got float"),
        (lambda: transition_frequency(S2_HALF, GROUND, 9.1e-31),
         "m_eff must be a Quantity, got float"),
    ], ids=["effective_mass", "level_energy", "transition_frequency",
            "effective_mass-float", "level_energy-float", "transition_frequency-float"])
    def test_masses_must_have_mass_dimension(self, call, message):
        with pytest.raises(DimensionError) as info:
            call()
        assert str(info.value) == message
