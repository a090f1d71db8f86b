"""Reference PPS draw: the oracle for ``repro.sampling.weighted.pps_permutation``.

This is the straightforward Efraimidis–Spirakis order: one exponential key
per candidate and a stable argsort of all of them, of which the first
``size`` entries are the draws.  The library's top-``size`` selection must
return the same indices byte for byte and leave the generator in the same
state (``tests/test_pps_draw.py``); ``benchmarks/run_micro.py`` times it
against this.
"""

from __future__ import annotations

import numpy as np

from repro.sampling.rng import SeedLike, resolve_rng


def pps_permutation_reference(
    probabilities: np.ndarray, size: int, seed: SeedLike = None
) -> np.ndarray:
    """The first ``size`` entries of the full stable-sorted PPS draw order."""
    probabilities = np.asarray(probabilities, dtype=np.float64)
    rng = resolve_rng(seed)
    keys = rng.exponential(scale=1.0, size=probabilities.size) / probabilities
    return np.argsort(keys, kind="stable")[:size]
