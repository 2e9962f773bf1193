"""Fixtures shared by the test modules."""

import importlib

import pytest


@pytest.fixture
def fresh_faulhaber():
    """An empty Faulhaber memo before and after the test: coefficients
    built from a patched or rebuilt Bernoulli table reach no later test,
    and none built before it hides a read of the table."""
    coeffs = importlib.import_module("moser_ladder.powersum")._faulhaber_coeffs
    coeffs.cache_clear()
    yield
    coeffs.cache_clear()
