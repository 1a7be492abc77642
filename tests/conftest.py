import pytest

from midspec.quasipoly import mid_coefficients, mid_normalized


@pytest.fixture(scope="session")
def example_system():
    """The order-3 showcase design: root -0.5 of multiplicity 6, delay 2.5."""
    return mid_coefficients(3, -0.5, 2.5)


@pytest.fixture(scope="session")
def qhat():
    """Normalized quartic quasipolynomial z^2 - 4z + 6 - e^(-z)(2z + 6)."""
    return mid_normalized(2).quasipolynomial()


@pytest.fixture(scope="session")
def std_pair():
    from midspec.bounds import standard_pair

    return standard_pair()
