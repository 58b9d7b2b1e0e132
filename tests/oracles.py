"""Independent reference computations for test expectations.

Everything here deliberately avoids the package's code paths: constants are
re-declared as literals and each formula is evaluated the straightforward
textbook way (direct products, finite differences, numerical quadrature), so
a bug in the library cannot hide in its own oracle.
"""

import math
from fractions import Fraction

# CODATA 2018 literals (same vintage the library stores, declared separately)
G = 6.67430e-11
C = 299792458.0
C2 = C * C
H = 6.62607015e-34
HBAR = 1.054571817e-34
ALPHA = 7.2973525693e-3
M_ELECTRON = 9.1093837015e-31
EV = 1.602176634e-19

# shipped registry values
M_EARTH = 5.9722e24
R_EARTH = 6.371e6
M_SUN = 1.9885e30
R_SUN = 6.957e8
AU = 1.495978707e11
MASS_RADIUS = {"sun": (M_SUN, R_SUN), "earth": (M_EARTH, R_EARTH)}

G_STANDARD = 9.80665  # conventional surface gravity for the g*h cross-check


def point_mass_potential(mass_kg: float, r_m: float) -> float:
    return -G * mass_kg / r_m


def potential_exact(pairs) -> Fraction:
    """phi = -sum G*M/r (m^2/s^2) over the (mass_kg, r_m) pairs of the bodies
    acting at a point, in exact rationals from the float inputs, unrounded."""
    return -sum((Fraction(G) * Fraction(mass) / Fraction(r) for mass, r in pairs), Fraction(0))


def fractional_shift_exact(pairs) -> tuple[float, float]:
    """(phi_emit - phi_obs)/c^2 between two points, and the sum of the
    magnitudes of its per-body terms, each evaluated in exact rationals from
    the float inputs and rounded once, at the end.

    ``pairs`` holds (mass_kg, r_emit_m, r_obs_m) for each body; its term is
    G*M*(r_emit - r_obs)/(r_emit*r_obs*c^2).
    """
    terms = [Fraction(G) * Fraction(mass) * (Fraction(r_emit) - Fraction(r_obs))
             / (Fraction(r_emit) * Fraction(r_obs) * Fraction(C) ** 2)
             for mass, r_emit, r_obs in pairs]
    return float(sum(terms)), float(sum(abs(t) for t in terms))


def level_energy_direct(Z: int, n: int, j: float, mass_kg: float) -> float:
    """Fine-structure binding energy evaluated in one direct expression (J)."""
    return (ALPHA**2 * mass_kg * C2 / 2.0) * (Z**2 / n**2) * (
        1.0 + (ALPHA**2 * Z**2 / n) * (1.0 / (j + 0.5) - 3.0 / (4.0 * n))
    )


def level_energy_exact(Z: int, n: int, j: float, mass_kg: float, phi: Fraction) -> Fraction:
    """The binding energy of level_energy_direct (J) at the effective mass
    m*(1 + phi/c^2), in exact rationals from the float inputs, unrounded;
    ``phi`` is the exact potential at the emitter (see potential_exact)."""
    alpha2, c2 = Fraction(ALPHA) ** 2, Fraction(C) ** 2
    m_eff = Fraction(mass_kg) * (1 + phi / c2)
    bracket = 1 + alpha2 * Z**2 / n * (1 / (Fraction(j) + Fraction(1, 2)) - Fraction(3, 4 * n))
    return alpha2 * m_eff * c2 / 2 * Fraction(Z**2, n**2) * bracket


def fine_structure_splitting_direct(Z: int, n: int, j_low: float, j_high: float,
                                    mass_kg: float) -> float:
    """Splitting via the bracket difference, never subtracting big energies (J)."""
    return (ALPHA**2 * mass_kg * C2 / 2.0) * (Z**2 / n**2) * (ALPHA**2 * Z**2 / n) * (
        1.0 / (j_low + 0.5) - 1.0 / (j_high + 0.5)
    )


def gauss_legendre(n: int) -> list[tuple[float, float]]:
    """(node, weight) pairs of the n-point Gauss-Legendre rule on [-1, 1].

    Each node is a root of the Legendre polynomial P_n, found by Newton's
    iteration from the estimate cos(pi*(i - 1/4)/(n + 1/2)), with P_n and
    P_n' from the three-term recurrence; its weight is 2/((1 - x^2)*P_n'(x)^2).
    """
    rule = []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p_prev, p = 1.0, x
            for m in range(2, n + 1):
                p_prev, p = p, ((2 * m - 1) * x * p - (m - 1) * p_prev) / m
            dp = n * (x * p - p_prev) / (x * x - 1.0)
            dx = p / dp
            x -= dx
            if abs(dx) <= 1e-16:
                break
        rule.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    return rule


def deflection_quadrature(mu_m: float, b_m: float) -> float:
    """Graded-index deflection angle for n(r) = 1 + mu/r at impact parameter b.

    alpha(b) = 2*b * integral_b^inf |dn/dr| dr / (n(r) * sqrt(r^2 - b^2)),
    evaluated after the substitution r = b/cos(theta), which removes the
    endpoint singularity:  alpha = 2*(mu/b) * int_0^{pi/2} cos(t) dt
                                            / (1 + (mu/b) cos(t)).
    For mu/b < 1 the integrand's poles lie at Re t = pi, far from the
    interval, so 24 Gauss-Legendre nodes, on t = (pi/4)*(1 + x), give the
    integral to rounding.
    """
    k = mu_m / b_m
    half = math.pi / 4.0
    value = half * math.fsum(
        w * math.cos(half * (1.0 + x)) / (1.0 + k * math.cos(half * (1.0 + x)))
        for x, w in gauss_legendre(24))
    return 2.0 * k * value


MU_SUN = G * M_SUN / C2  # graded-index strength of the Sun, m


def bent_ray_closed_form(mu_m: float, b_m: float, r_m: float) -> tuple[float, float, float]:
    """Exact ray through n(r) = 1 + mu/r from the circle of radius R, entered
    parallel to +x at height b, to where it leaves that circle.

    Returns (delta_R, r_min, excess): the signed bend inside the circle
    (negative: towards the body), the closest approach and the time excess
    over the chord (s).  The index is central, so Bouguer's invariant
    n*r*sin(psi) = ell (Born & Wolf, Principles of Optics, 3.2) holds along
    the ray, with ell = n(R)*b; as n*r = r + mu, every integral is elementary.
    With kappa = ell/sqrt(ell^2 - mu^2), q = (ell^2 - mu*R - mu^2)/(ell*R) and
    a = b/R:

        r_min = ell - mu,
        polar angle swept  Phi = 2*kappa*(pi/2 - asin q),
        delta_R = pi - 2*asin(a) - Phi,
        c*T = 2*[sqrt((R + mu)^2 - ell^2) + mu*acosh((R + mu)/ell)
                 + (mu^2/ell)*Phi/2],
        chord = 2*R*sin(Phi/2).

    They are written here without cancellation: kappa - 1 through expm1 and
    log1p, asin(a) - asin(q) from a - q = mu*(R + mu - ell*b/R)/(ell*R), and
    the excess c*(T - chord/c)/2 as a sum of terms that are each small.
    """
    ell = (1.0 + mu_m / r_m) * b_m
    kappa_minus_1 = math.expm1(-0.5 * math.log1p(-(mu_m / ell) ** 2))
    a = b_m / r_m
    a_minus_q = mu_m * (r_m + mu_m - ell * b_m / r_m) / (ell * r_m)
    q = a - a_minus_q
    asin_a_minus_asin_q = math.asin(
        a_minus_q * (a + q) / (a * math.sqrt(1.0 - q * q) + q * math.sqrt(1.0 - a * a)))
    delta = -2.0 * asin_a_minus_asin_q - 2.0 * kappa_minus_1 * (math.pi / 2.0 - math.asin(q))

    u = r_m + mu_m
    root_in, root_out = math.sqrt(u * u - ell * ell), math.sqrt(r_m * r_m - b_m * b_m)
    n_diff = 2.0 * r_m * mu_m + mu_m ** 2 - b_m ** 2 * mu_m * (2.0 / r_m + mu_m / r_m ** 2)
    half_excess = (n_diff / (root_in + root_out)
                   + 2.0 * root_out * math.sin(delta / 4.0) ** 2
                   + b_m * math.sin(delta / 2.0)
                   + mu_m * math.acosh(u / ell)
                   + mu_m ** 2 / ell * (math.pi / 2.0 - math.asin(a) - delta / 2.0))
    return delta, ell - mu_m, 2.0 * half_excess / C


def chord_time(b_m: float, r_m: float, delta: float) -> float:
    """Vacuum time (s) along the chord of a ray that enters the circle of
    radius R parallel to +x at height b and leaves it bent by delta.  Both
    ends lie on the circle, at polar angles pi - asin(b/R) and asin(b/R) +
    delta, so the chord is 2*R*cos(asin(b/R) + delta/2)."""
    return 2.0 * r_m * math.cos(math.asin(b_m / r_m) + delta / 2.0) / C
