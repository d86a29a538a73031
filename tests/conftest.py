import pytest

from primebounds import primes, zeros


@pytest.fixture(scope="session")
def tables_1e6():
    return primes.build_tables(10 ** 6)


@pytest.fixture(scope="session")
def tables_10k():
    return primes.build_tables(10 ** 4)


@pytest.fixture(scope="session")
def zero_list():
    return zeros.load_zeros(zeros.bundled_zeros_path())


@pytest.fixture(scope="session")
def tables_2e5():
    return primes.build_tables(200_000)
