"""Shared fixtures: session-cached oracles and growth tables per catalog entry.

A word oracle builds its table of elements sphere by sphere and keeps it, so
every test that needs an oracle for a catalog system goes through
``oracle_for`` and shares one instance, whose table only grows.
"""

import pytest

from coxgrowth import WordOracle, get, growth_table


@pytest.fixture(scope="session")
def oracle_for():
    cache = {}

    def lookup(name: str) -> WordOracle:
        if name not in cache:
            cache[name] = WordOracle(get(name).matrix)
        return cache[name]

    return lookup


@pytest.fixture(scope="session")
def table_for():
    def lookup(name: str):
        return growth_table(get(name).matrix)

    return lookup
