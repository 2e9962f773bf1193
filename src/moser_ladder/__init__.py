"""Exact arithmetic for Bernoulli numbers, power sums, and the gcd
structure of consecutive power sums, plus grid verification sweeps.

`powersum`, `gcdlab` and `sweeps` are lazy: each sits in `sys.modules`
and on the package from the first import (`bench/trace_driver.py` reads
`sys.modules["moser_ladder.sweeps"]` right after `import moser_ladder.cli`),
but runs only on first attribute access, so a query that never calls one
never compiles it. `__getattr__` resolves the package's names from them.
"""

import importlib.util
import sys

from ._version import __version__
from .bernoulli import (
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
from .cache import (
    CacheChecksumError,
    CacheError,
    CacheFormatError,
    CacheStore,
    CacheVersionError,
    cache_load,
    cache_store,
    snapshot_bernoulli,
    warm_bernoulli,
)


def _lazy(name: str):
    """Register submodule `name` lazily (the importlib docs' recipe)."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# dependencies first, so finding a name runs only its module and its imports
_LAZY = powersum, gcdlab, sweeps = (
    _lazy("powersum"), _lazy("gcdlab"), _lazy("sweeps"))


def __getattr__(name: str):
    for module in _LAZY if name in __all__ else ():
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "__version__",
    "SquareFreeStatus",
    "bernoulli",
    "denominator",
    "divides_rational",
    "numerator",
    "numerator_bound_check",
    "size_estimate",
    "square_free_status",
    "vsc_denominator",
    "CacheChecksumError",
    "CacheError",
    "CacheFormatError",
    "CacheStore",
    "CacheVersionError",
    "cache_load",
    "cache_store",
    "snapshot_bernoulli",
    "warm_bernoulli",
    "CongruenceVerdict",
    "CrossGcdVerdict",
    "GcdLadder",
    "MinMaxResult",
    "PrimeLocalVerdict",
    "WindowTooSmallError",
    "congruence_check",
    "cross_gcd_check",
    "gcd_ladder",
    "gcd_ratio",
    "min_max_scan",
    "prime_local_congruences",
    "RatioHit",
    "crossover",
    "em_scan",
    "power_sum",
    "power_sum_naive",
    "running_sums",
    "search_ratio",
    "CHECK_ORDER",
    "PROFILES",
    "GridSpec",
    "run_sweep",
    "verify_all",
]
