"""Exact arithmetic for Bernoulli numbers, power sums, and the gcd
structure of consecutive power sums, plus grid verification sweeps.

Importing the package runs `bernoulli` alone. `_primes`, `cache`,
`powersum`, `gcdlab` and `sweeps` are lazy: each sits in `sys.modules`
and on the package from the first import (`bench/trace_driver.py` binds
`_primes`, `bernoulli` and `sweeps` from `sys.modules` right after
`import moser_ladder.cli`, and its `install` also reads `cache`,
`gcdlab` and `powersum` there), but runs only on first attribute access,
so a query that never calls one never compiles it. `__getattr__`
resolves a package name from the one module `_OWNER` names, so finding
it runs only that module and its imports.
"""

__version__ = "0.1.0"  # as `pyproject.toml` states it; a test ties the two

import importlib.util
import sys


def _lazy(name: str):
    """Register submodule `name` lazily (the importlib docs' recipe)."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# before `bernoulli` runs, so that its `from . import _primes` binds the
# registered module without running it
_primes, cache, powersum, gcdlab, sweeps = map(_lazy, (
    "_primes", "cache", "powersum", "gcdlab", "sweeps"))

from .bernoulli import (  # noqa: E402
    CacheError,
    SquareFreeStatus,
    bernoulli,
    denominator,
    divides_rational,
    numerator,
    numerator_bound_check,
    size_estimate,
    square_free_status,
    vsc_denominator,
)

# the module that defines each lazy name of the package
_OWNER = {name: module for module, names in (
    (cache, ("CacheStore", "cache_load", "cache_store",
             "snapshot_bernoulli", "warm_bernoulli")),
    (gcdlab, ("CongruenceVerdict", "CrossGcdVerdict", "GcdLadder",
              "MinMaxResult", "PrimeLocalVerdict", "congruence_check",
              "cross_gcd_check", "gcd_ladder", "gcd_ratio", "min_max_scan",
              "prime_local_congruences")),
    (powersum, ("RatioHit", "crossover", "em_scan", "power_sum",
                "power_sum_naive", "running_sums", "search_ratio")),
    (sweeps, ("CHECK_ORDER", "PROFILES", "GridSpec", "run_sweep",
              "verify_all")),
) for name in names}


def __getattr__(name: str):
    if name in _OWNER:
        return getattr(_OWNER[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "__version__",
    "CacheError",
    "SquareFreeStatus",
    "bernoulli",
    "denominator",
    "divides_rational",
    "numerator",
    "numerator_bound_check",
    "size_estimate",
    "square_free_status",
    "vsc_denominator",
]
__all__ += list(_OWNER)
