"""Deterministic model fixtures for tests, benchmarks and the CLI."""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import ModelError
from .model import ModelSpec, make_spec
from .operators import extend_ring

FIXTURE_NAMES = ("uniform", "random-hop", "remark5", "extended")

DEFAULT_SEED = 0


def base_seed() -> int:
    """Default seed, overridable through the FLUXRING_SEED environment variable."""
    env = os.environ.get("FLUXRING_SEED")
    return int(env) if env else DEFAULT_SEED


def random_hoppings(L: int, seed: int) -> tuple[float, ...]:
    """Reproducible positive magnitudes in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    return tuple(float(x) for x in rng.uniform(0.5, 2.0, size=L))


def reseed_hoppings(spec: ModelSpec, seed: int) -> ModelSpec:
    """Same ring with fresh random hopping magnitudes."""
    return make_spec(spec.L, spec.N, random_hoppings(spec.L, seed),
                     spec.hop_phase, spec.V, spec.U)


def remark5_spec(t: float = 50.0, N: int = 5) -> ModelSpec:
    """Five-site ring whose large-t limit collapses two sites into one.

    Bond pattern (1, sqrt2, t, sqrt2, 1) with potential t on the two sites
    joined by the strong bond; the x=4 entry of the source table is read as
    sqrt2 (the symmetric choice). Edit here to probe the other reading.
    """
    mags = (1.0, math.sqrt(2.0), float(t), math.sqrt(2.0), 1.0)
    pots = (0.0, 0.0, float(t), float(t), 0.0)
    return make_spec(5, N, mags, None, pots, 0.0)


def gen_fixture(name: str, seed: int | None = None, L: int | None = None,
                N: int | None = None, t: float = 50.0) -> ModelSpec:
    """Named deterministic fixtures.

    uniform    : |t| = 1, theta = V = U = 0 (L defaults to 3, N to L)
    random-hop : seeded |t| in [0.5, 2], theta = V = U = 0 (L defaults to 5)
    remark5    : the strong-bond counterexample ring, parameterized by t
    extended   : the period-2 doubling of a random-hop ring (L defaults to 3)
    """
    seed = base_seed() if seed is None else seed
    if name == "uniform":
        L = 3 if L is None else L
        return make_spec(L, L if N is None else N)
    if name == "random-hop":
        L = 5 if L is None else L
        return make_spec(L, L if N is None else N, random_hoppings(L, seed))
    if name == "remark5":
        return remark5_spec(t=t, N=5 if N is None else N)
    if name == "extended":
        L = 3 if L is None else L
        return extend_ring(make_spec(L, L if N is None else N, random_hoppings(L, seed)))
    raise ModelError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
