"""Shared fixtures: session-wide oracles and growth tables per catalog entry.

The package caches nothing between calls, so the test session owns its
reuse.  A word oracle builds its table of elements sphere by sphere and
keeps it, so every test that needs an oracle for a catalog system goes
through ``oracle_for`` and shares one instance, whose table only grows.
Likewise ``table_for`` builds each catalog system's growth table once per
session.  ``full_histogram`` and ``schoolbook_product`` are plain helpers
the test modules import.
"""

import pytest

from coxgrowth import GrowthTable, WordOracle, get
from coxgrowth.ratfunc import Poly, cyclotomic


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
    cache = {}

    def lookup(name: str) -> GrowthTable:
        if name not in cache:
            cache[name] = GrowthTable(get(name).matrix)
        return cache[name]

    return lookup


def full_histogram(oracle: WordOracle) -> list:
    """Sphere sizes of a finite group, counted until a sphere is empty."""
    sizes = []
    while size := len(oracle.sphere_ids(len(sizes))):
        sizes.append(size)
    return sizes


def schoolbook_product(exponents: dict) -> Poly:
    """prod_k Phi_k^{e_k} multiplied out factor by factor: the reference for
    ``cyclotomic_product`` and a growth table's common denominator."""
    out = Poly((1,))
    for k, e in sorted(exponents.items()):
        for _ in range(e):
            out = out * cyclotomic(k)
    return out
