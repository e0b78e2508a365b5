"""The one SplitMix64 finalizer: the scalar and vectorised forms agree."""

import numpy as np

from dilutecw import _twins, splitmix
from dilutecw.mcmc import derive_seed


def test_scalar_and_vector_finalizers_agree():
    rng = np.random.default_rng(20261018)
    values = rng.integers(0, 1 << 64, size=4096, dtype=np.uint64, endpoint=False)
    values[:4] = [0, 1, (1 << 63), splitmix.MASK64]
    z = values.copy()
    _twins.finalize_array(z, np.empty_like(z))
    assert [int(v) for v in z] == [splitmix.finalize(int(v)) for v in values]


def test_finalizer_known_values():
    # The finalizer of 0 is 0; the first SplitMix64 output for state 0 is
    # finalize(gamma), a published reference value.
    assert splitmix.finalize(0) == 0
    assert splitmix.finalize(splitmix.GAMMA) == 0xE220A8397B1DCDAF


def test_derive_seed_is_chained_finalizer():
    h = splitmix.finalize(123)
    for v in (4, 5):
        h = splitmix.finalize((h + (v + 1) * splitmix.GAMMA) & splitmix.MASK64)
    assert derive_seed(123, 4, 5) == h
