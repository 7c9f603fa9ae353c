"""Shared fixtures: the (d, n) test grid and cached generator families."""

import pytest

from resultantforge import Ring
from resultantforge.diagonal import build_diagonal_weights, diagonal_order
from resultantforge.minors import enumerate_generators, generators_for_basis

GRID = [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]


@pytest.fixture(scope="session")
def rings():
    return {dn: Ring(*dn) for dn in GRID}


@pytest.fixture(scope="session")
def all_records():
    return {dn: enumerate_generators(*dn) for dn in GRID}


@pytest.fixture(scope="session")
def basis_records():
    return {dn: generators_for_basis(*dn) for dn in GRID}


@pytest.fixture(scope="session")
def diag_orders(rings):
    return {dn: diagonal_order(build_diagonal_weights(*dn), rings[dn]) for dn in GRID}
