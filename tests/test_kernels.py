import numpy as np
import pytest

from bundlecraft import kernels


def bpr_epoch_oracle(user, item, us, pos, neg, lr, reg):
    """The per-update loop that ``kernels.bpr_epoch`` applies in waves."""
    for n in range(us.shape[0]):
        u, i, j = us[n], pos[n], neg[n]
        pu = user[u].copy()
        pi = item[i].copy()
        pj = item[j].copy()
        x = float(np.dot(pu, pi - pj))
        if x >= 0.0:
            e = np.exp(-x)
            s = e / (1.0 + e)
        else:
            s = 1.0 / (1.0 + np.exp(x))
        user[u] = pu + lr * (s * (pi - pj) - reg * pu)
        item[i] = pi + lr * (s * pu - reg * pi)
        item[j] = pj + lr * (-s * pu - reg * pj)


def propagate_step_oracle(u_idx, i_idx, coeff, user_prev, item_prev):
    """Edge-by-edge ``np.add.at`` propagation."""
    user_next = np.zeros_like(user_prev)
    item_next = np.zeros_like(item_prev)
    w = coeff[:, None]
    np.add.at(user_next, u_idx, w * item_prev[i_idx])
    np.add.at(item_next, i_idx, w * user_prev[u_idx])
    return user_next, item_next


def softmax_rows_oracle(x):
    """Row softmax with numpy's row reductions, which sum rows of 8 or more
    pairwise."""
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def softmax_rows_grad_oracle(p, g):
    return p * (g - (g * p).sum(axis=1, keepdims=True))


def bpr_stream(seed, length):
    """A stream over few users and items, so rows repeat within a few updates,
    with every fifth update a ``pos == neg`` give-up."""
    rng = np.random.default_rng(seed)
    m, n, d = int(rng.integers(1, 8)), int(rng.integers(1, 12)), int(rng.integers(1, 9))
    us = rng.integers(0, m, length)
    pos = rng.integers(0, n, length)
    neg = rng.integers(0, n, length)
    neg[::5] = pos[::5]
    return rng.normal(size=(m, d)), rng.normal(size=(n, d)), us, pos, neg


def bpr_pair(stream, lr=0.3, reg=0.01):
    user, item, us, pos, neg = stream
    want = (user.copy(), item.copy())
    got = (user.copy(), item.copy())
    bpr_epoch_oracle(*want, us, pos, neg, lr, reg)
    kernels.bpr_epoch(*got, us, pos, neg, lr, reg)
    return want, got


@pytest.mark.parametrize("length", [0, 1, 2, 37, 400])
@pytest.mark.parametrize("seed", range(6))
def test_bpr_epoch_matches_loop(seed, length):
    want, got = bpr_pair(bpr_stream(seed, length))
    for w, g in zip(want, got):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)


def wide_stream(seed):
    """3000 updates over 1000 users and 5000 items, so the first waves hold
    hundreds of updates, with every seventh update a ``pos == neg`` give-up."""
    rng = np.random.default_rng(seed)
    us = rng.integers(0, 1000, 3000)
    pos = rng.integers(0, 5000, 3000)
    neg = rng.integers(0, 5000, 3000)
    neg[::7] = pos[::7]
    return rng.normal(size=(1000, 16)), rng.normal(size=(5000, 16)), us, pos, neg


@pytest.mark.parametrize("seed", range(3))
def test_bpr_epoch_wide_waves_match_loop(seed):
    stream = wide_stream(seed)
    _, bounds = kernels._dependency_waves(*stream[2:])
    assert np.diff(bounds).max() >= 300
    want, got = bpr_pair(stream)
    for w, g in zip(want, got):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)


def waves_by_loop(us, pos, neg):
    """Each update's wave, 1-based, by a plain loop over the stream: one more
    than the latest wave of an earlier update on any of its rows, so the
    largest is the longest dependency chain."""
    last_user, last_item, waves = {}, {}, []
    for u, i, j in zip(us.tolist(), pos.tolist(), neg.tolist()):
        w = 1 + max(last_user.get(u, 0), last_item.get(i, 0), last_item.get(j, 0))
        last_user[u] = last_item[i] = last_item[j] = w
        waves.append(w)
    return waves


@pytest.mark.parametrize("stream", [bpr_stream(s, 500) for s in range(4)] + [wide_stream(0)],
                         ids=["narrow0", "narrow1", "narrow2", "narrow3", "wide"])
def test_dependency_waves_are_disjoint_ordered_and_shortest(stream):
    user, item, us, pos, neg = stream
    n = us.shape[0]
    order, bounds = kernels._dependency_waves(us, pos, neg)
    assert sorted(order.tolist()) == list(range(n))
    wave = np.empty(n, dtype=np.int64)
    for w, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        members = order[a:b]
        wave[members] = w
        assert np.unique(us[members]).size == members.size
        items = [{int(p), int(q)} for p, q in zip(pos[members], neg[members])]
        assert sum(len(s) for s in items) == len(set().union(*items))
    for k in range(1, n):
        rows = (us[:k] == us[k]) | np.isin(pos[:k], (pos[k], neg[k])) | np.isin(neg[:k], (pos[k], neg[k]))
        assert (wave[:k][rows] < wave[k]).all()
    by_loop = waves_by_loop(us, pos, neg)
    assert (wave + 1).tolist() == by_loop
    assert len(bounds) - 1 == max(by_loop)
    assert kernels.bpr_epoch(user.copy(), item.copy(), us, pos, neg, 0.3, 0.01) == len(bounds) - 1


def test_waves_ignoring_neg_fail_oracle(monkeypatch):
    # mutation check: a schedule blind to the neg column must be caught
    build = kernels._dependency_waves
    monkeypatch.setattr(kernels, "_dependency_waves", lambda us, pos, neg: build(us, pos, pos))
    mismatched = 0
    for seed in range(6):
        want, got = bpr_pair(bpr_stream(seed, 400))
        mismatched += not all(np.allclose(g, w, rtol=1e-12, atol=1e-12) for w, g in zip(want, got))
    assert mismatched > 0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", range(8))
def test_propagate_step_matches_add_at(seed, dtype):
    rng = np.random.default_rng(seed)
    m, n, d = int(rng.integers(1, 30)), int(rng.integers(1, 30)), int(rng.integers(1, 9))
    e = int(rng.integers(0, 400)) if seed else 0
    u_idx = rng.integers(0, m, e)
    i_idx = rng.integers(0, n, e)
    coeff = rng.uniform(0.01, 1.0, e).astype(dtype)
    user = rng.normal(size=(m, d)).astype(dtype)
    item = rng.normal(size=(n, d)).astype(dtype)
    got = kernels.propagate_step(u_idx, i_idx, coeff, user, item)
    if dtype is np.float64:
        want = propagate_step_oracle(u_idx, i_idx, coeff, user, item)
    else:
        # the inputs upcast, so each edge product is exact, summed in float64
        # in edge order and rounded once
        up = [a.astype(np.float64) for a in (coeff, user, item)]
        want = [t.astype(np.float32) for t in propagate_step_oracle(u_idx, i_idx, *up)]
        for g, o in zip(got, propagate_step_oracle(u_idx, i_idx, coeff, user, item)):
            np.testing.assert_allclose(g, o, rtol=1e-5, atol=1e-5)
    for g, w in zip(got, want):
        assert g.dtype == dtype
        np.testing.assert_array_equal(g, w)


def test_propagate_step_long_shuffled_rows_match_add_at():
    """Item rows of about a hundred edges, with repeats, in no particular
    order, still sum in edge order."""
    rng = np.random.default_rng(17)
    m, n, d, e = 3000, 200, 5, 20000
    u_idx = rng.integers(0, m, e)
    i_idx = rng.integers(0, n, e)
    coeff = rng.uniform(0.01, 1.0, e)
    user = rng.normal(size=(m, d))
    item = rng.normal(size=(n, d))
    got = kernels.propagate_step(u_idx, i_idx, coeff, user, item)
    want = propagate_step_oracle(u_idx, i_idx, coeff, user, item)
    for g, w in zip(got, want):
        assert g.dtype == np.float64
        np.testing.assert_array_equal(g, w)


def test_propagate_zero_edges():
    u = np.zeros(0, dtype=np.int64)
    coeff = np.zeros(0)
    user = np.ones((3, 2))
    item = np.ones((4, 2))
    un, it = kernels.propagate_step(u, u.copy(), coeff, user, item)
    assert (un == 0).all() and (it == 0).all()
    assert un.dtype == user.dtype and it.dtype == item.dtype


def softmax_inputs(width, dtype):
    """Logits with a -inf (a padded set member) in some rows, never a whole row."""
    rng = np.random.default_rng(width)
    x = rng.normal(size=(300, width)) * 10
    if width > 1:
        x[rng.random(300) < 0.3, rng.integers(1, width)] = -np.inf
    return x.astype(dtype), rng.normal(size=(300, width)).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", range(1, 8))
def test_softmax_rows_bits_match_row_reductions(width, dtype):
    x, g = softmax_inputs(width, dtype)
    p = kernels.softmax_rows(x)
    assert p.dtype == dtype
    assert p.tobytes() == softmax_rows_oracle(x).tobytes()
    assert kernels.softmax_rows_grad(p, g).tobytes() == softmax_rows_grad_oracle(p, g).tobytes()


@pytest.mark.parametrize("width", [8, 10, 33])
def test_softmax_rows_wide_rows_match_pairwise_sums(width):
    x, g = softmax_inputs(width, np.float64)
    p = kernels.softmax_rows(x)
    np.testing.assert_allclose(p, softmax_rows_oracle(x), rtol=1e-14, atol=1e-300)
    np.testing.assert_allclose(kernels.softmax_rows_grad(p, g), softmax_rows_grad_oracle(p, g),
                               rtol=1e-12, atol=1e-14)
