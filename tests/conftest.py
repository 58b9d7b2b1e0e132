import pytest

from gravshift.data import data_file
from gravshift.gravity import FieldPoint, load_bodies


@pytest.fixture(scope="session")
def bodies():
    return load_bodies(data_file("bodies.json"))


@pytest.fixture(scope="session")
def earth(bodies):
    return bodies["earth"]


@pytest.fixture(scope="session")
def sun(bodies):
    return bodies["sun"]


@pytest.fixture(scope="session")
def earth_surface(earth):
    return FieldPoint("surface", [(earth, earth.radius_m)])
