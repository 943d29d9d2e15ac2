import threading

import numpy as np
import pytest

from bundlecraft.kernels import CALL_HELPER_NAME


@pytest.fixture(autouse=True)
def no_cf_helper_left():
    """Fail a test that leaves alive a helper thread of a ``bpr_epoch`` or
    ``propagate_step`` call: each call ends its helper before returning."""
    yield
    alive = [t for t in threading.enumerate() if t.name == CALL_HELPER_NAME]
    if alive:
        pytest.fail(f"{len(alive)} {CALL_HELPER_NAME} thread(s) still alive after the test")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def numeric_grad(f, x, h=1e-6):
    """Central finite differences of scalar f at matrix x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        orig = x[ix]
        x[ix] = orig + h
        fp = f()
        x[ix] = orig - h
        fm = f()
        x[ix] = orig
        g[ix] = (fp - fm) / (2 * h)
    return g


def rel_err(analytic, numeric, floor=1e-6):
    denom = np.maximum.reduce([np.abs(analytic), np.abs(numeric), np.full_like(numeric, floor)])
    return float((np.abs(analytic - numeric) / denom).max())
