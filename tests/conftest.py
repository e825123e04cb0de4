import numpy as np
import pytest
from hypothesis import settings

# Every hypothesis property draws the same examples on every run, with no
# deadline, so the suite stays deterministic; a derandomized profile reads
# and writes no example database.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
