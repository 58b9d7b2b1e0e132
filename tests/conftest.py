import pytest

from gravshift.gravity import FieldPoint, default_bodies


@pytest.fixture(scope="session")
def bodies():
    return default_bodies()


@pytest.fixture(scope="session")
def earth(bodies):
    return bodies["earth"]


@pytest.fixture(scope="session")
def sun(bodies):
    return bodies["sun"]


@pytest.fixture(scope="session")
def earth_surface(earth):
    return FieldPoint.at_altitude(earth, 0.0, "surface")
