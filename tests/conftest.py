# Pin BLAS thread pools before numpy loads so timing tests are single-threaded.
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402


@pytest.fixture
def pool_width():
    """``pool_width(n)`` runs packed_net's passes on ``n`` workers; the default returns after the test."""
    from packedflow import packed_net

    yield packed_net._set_pool_width
    packed_net._set_pool_width(None)
