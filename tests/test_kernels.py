import numpy as np

from bundlecraft import kernels


def test_propagate_zero_edges():
    u = np.zeros(0, dtype=np.int64)
    coeff = np.zeros(0)
    user = np.ones((3, 2))
    item = np.ones((4, 2))
    un, it = kernels.propagate_step(u, u.copy(), coeff, user, item)
    assert (un == 0).all() and (it == 0).all()
