import contextlib
import sys
import threading
import traceback
import warnings

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
    monkeypatch.setattr(kernels, "_dependency_waves",
                        lambda us, pos, neg, jobs=None: build(us, pos, pos, jobs))
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


# ---------------------------------------------------------------------------
# CF kernels over two threads
# ---------------------------------------------------------------------------

def set_cpus(monkeypatch, cpus):
    monkeypatch.setattr(kernels.os, "sched_getaffinity", lambda pid: set(range(cpus)))


def on_threads(monkeypatch):
    """Record the thread that runs each job handed to a helper through
    ``run_split``; returns the list of thread idents, one per job."""
    ran_on = []
    split = kernels.run_split

    def recording(jobs, mine, theirs):
        def traced():
            ran_on.append(threading.get_ident())
            theirs()
        split(jobs, mine, theirs if jobs is None else traced)

    monkeypatch.setattr(kernels, "run_split", recording)
    return ran_on


def mixed_stream(seed, dtype):
    """6000 updates over 1200 users and 20000 items: early waves of several
    hundred updates, later ones of a few, users repeating, and every sixth
    update a ``pos == neg`` give-up."""
    rng = np.random.default_rng(seed)
    us = rng.integers(0, 1200, 6000)
    pos = rng.integers(0, 20000, 6000)
    neg = rng.integers(0, 20000, 6000)
    neg[::6] = pos[::6]
    return (rng.normal(size=(1200, 8)).astype(dtype), rng.normal(size=(20000, 8)).astype(dtype),
            us, pos, neg)


def bpr_run(monkeypatch, stream, cpus):
    set_cpus(monkeypatch, cpus)
    user, item, us, pos, neg = stream
    user, item = user.copy(), item.copy()
    waves = kernels.bpr_epoch(user, item, us, pos, neg, 0.3, 0.01)
    return user.tobytes(), item.tobytes(), waves


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", range(3))
def test_bpr_epoch_split_waves_keep_the_inline_bits(monkeypatch, seed, dtype):
    stream = mixed_stream(seed, dtype)
    sizes = np.diff(kernels._dependency_waves(*stream[2:])[1])
    assert sizes.max() >= kernels.SPLIT_MIN_ROWS > sizes.min()
    inline = bpr_run(monkeypatch, stream, 1)
    ran_on = on_threads(monkeypatch)
    split = bpr_run(monkeypatch, stream, 2)
    # the link sorts, then the half of each large wave
    assert len(ran_on) == 1 + (sizes >= kernels.SPLIT_MIN_ROWS).sum()
    assert any(ident != threading.get_ident() for ident in ran_on)
    assert split == inline


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bpr_epoch_short_stream_runs_inline(monkeypatch, dtype):
    user, item, us, pos, neg = mixed_stream(0, dtype)
    short = kernels.SPLIT_MIN_ROWS - 1
    stream = user, item, us[:short], pos[:short], neg[:short]
    set_cpus(monkeypatch, 2)
    assert kernels.inline_because(short) == f"{short} updates, under {kernels.SPLIT_MIN_ROWS}"
    assert kernels.inline_because(kernels.SPLIT_MIN_ROWS) is None
    ran_on = on_threads(monkeypatch)
    assert bpr_run(monkeypatch, stream, 2) == bpr_run(monkeypatch, stream, 1)
    assert ran_on == []


def propagate_case(seed, dtype):
    """A graph whose users and items include rows with no edge; seed 0 has
    no edges at all."""
    rng = np.random.default_rng(seed)
    m, n, d = 400, 900, 6
    e = 0 if seed == 0 else 5000
    u_idx = rng.integers(0, m - 50, e)
    i_idx = rng.integers(50, n, e)
    coeff = rng.uniform(0.01, 1.0, e).astype(dtype)
    return (u_idx, i_idx, coeff, rng.normal(size=(m, d)).astype(dtype),
            rng.normal(size=(n, d)).astype(dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", range(3))
def test_propagate_step_sides_at_once_keep_the_sequential_bits(monkeypatch, seed, dtype):
    case = propagate_case(seed, dtype)
    set_cpus(monkeypatch, 1)
    want = kernels.propagate_step(*case)
    ran_on = on_threads(monkeypatch)
    set_cpus(monkeypatch, 2)
    got = kernels.propagate_step(*case)
    assert len(ran_on) == 1
    for g, w in zip(got, want, strict=True):
        assert g.dtype == dtype and g.tobytes() == w.tobytes()
    assert not got[0][-50:].any() and not got[1][:50].any()


def test_concurrent_callers_keep_the_inline_bits(monkeypatch):
    """Three callers at once, each with its own helper (six threads on at
    most two CPUs), under a one-microsecond switch interval: every
    ``bpr_epoch`` and ``propagate_step`` returns the bits of its inline run."""
    streams = [mixed_stream(seed, np.float64) for seed in range(3)]
    cases = [propagate_case(seed, np.float64) for seed in range(3)]

    def run(k):
        user, item, us, pos, neg = streams[k]
        user, item = user.copy(), item.copy()
        waves = kernels.bpr_epoch(user, item, us, pos, neg, 0.3, 0.01)
        return ([user.tobytes(), item.tobytes(), waves]
                + [t.tobytes() for t in kernels.propagate_step(*cases[k])])

    set_cpus(monkeypatch, 1)
    want = [run(k) for k in range(3)]
    set_cpus(monkeypatch, 2)
    got = [None] * 3

    def caller(k):
        got[k] = run(k)

    threads = [threading.Thread(target=caller, args=(k,)) for k in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


def test_run_split_raises_the_helpers_exception_in_the_caller():
    """The helper claims the job before the caller's part ends, so the
    exception is the helper's; a job it claimed is waited for."""
    claimed = threading.Event()

    def theirs():
        claimed.set()
        raise ValueError("from the helper")

    with kernels.call_helper(None) as jobs:
        with pytest.raises(ValueError, match="from the helper") as err:
            kernels.run_split(jobs, lambda: claimed.wait(30), theirs)
    frames = traceback.extract_tb(err.value.__traceback__)
    assert any(f.name == "_serve_jobs" for f in frames)


def test_run_split_runs_the_helper_under_the_callers_errstate():
    claimed = threading.Event()
    big = np.float32(3e38)

    def theirs():
        claimed.set()
        return big * big

    with kernels.call_helper(None) as jobs:
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow") as err:
            kernels.run_split(jobs, lambda: claimed.wait(30), theirs)
        assert any(f.name == "_serve_jobs" for f in traceback.extract_tb(err.value.__traceback__))
        claimed.clear()
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            kernels.run_split(jobs, lambda: claimed.wait(30), theirs)


def test_bpr_epoch_overflow_in_the_helpers_half_reaches_the_caller(monkeypatch):
    """The first wave holds 600 updates on distinct rows; only the rows of
    its second half, the helper's, overflow ``pos - neg``."""
    set_cpus(monkeypatch, 2)
    n = 600
    us, pos, neg = np.arange(n), np.arange(n), np.arange(n, 2 * n)
    from_helper = 0
    for _ in range(10):
        user = np.ones((n, 4))
        item = np.zeros((2 * n, 4))
        item[n // 2 : n] = 1e308
        item[n + n // 2 :] = -1e308
        assert np.diff(kernels._dependency_waves(us, pos, neg)[1]).tolist() == [n]
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow") as err:
            kernels.bpr_epoch(user, item, us, pos, neg, 0.1, 0.0)
        from_helper += any(f.name == "_serve_jobs"
                           for f in traceback.extract_tb(err.value.__traceback__))
        assert not [t for t in threading.enumerate() if t.name == kernels.CALL_HELPER_NAME]
    assert from_helper > 0


def hold_the_helper(monkeypatch):
    """Hold each call's helper before its first job until the caller is
    done; returns, per job the helper then found, whether it could still
    claim it."""
    gates, claimable = [], []

    def held(jobs):
        gates[-1].wait(60)
        while (job := jobs.get()) is not None:
            fn, _, claim, done = job
            claimable.append(claim.acquire(blocking=False))
            if claimable[-1]:
                fn()
                done.put(None)

    helper = kernels.call_helper

    @contextlib.contextmanager
    def releasing(reason):
        gates.append(threading.Event())
        with helper(reason) as jobs:
            try:
                yield jobs
            finally:
                gates[-1].set()

    monkeypatch.setattr(kernels, "_serve_jobs", held)
    monkeypatch.setattr(kernels, "call_helper", releasing)
    return claimable


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_caller_computes_both_halves_when_the_helper_is_held(monkeypatch, dtype):
    stream = mixed_stream(1, dtype)
    case = propagate_case(1, dtype)
    inline = bpr_run(monkeypatch, stream, 1)
    want = kernels.propagate_step(*case)
    claimable = hold_the_helper(monkeypatch)
    assert bpr_run(monkeypatch, stream, 2) == inline
    got = kernels.propagate_step(*case)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    sizes = np.diff(kernels._dependency_waves(*stream[2:])[1])
    assert len(claimable) == 1 + (sizes >= kernels.SPLIT_MIN_ROWS).sum() + 1
    assert not any(claimable)


def test_one_cpu_starts_no_thread(monkeypatch):
    from bundlecraft import cf_pretrain as cf
    from test_cf_pretrain import graph_of

    class NoThread:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a thread was started")

    set_cpus(monkeypatch, 1)
    assert kernels.inline_because() == kernels.inline_because(10**6) == "one CPU"
    stream = mixed_stream(2, np.float64)
    case = propagate_case(2, np.float64)
    want = bpr_run(monkeypatch, stream, 1), kernels.propagate_step(*case)
    monkeypatch.setattr(kernels.threading, "Thread", NoThread)
    assert bpr_run(monkeypatch, stream, 1) == want[0]
    for g, w in zip(kernels.propagate_step(*case), want[1]):
        assert g.tobytes() == w.tobytes()
    edges = [(u, i) for u in range(30) for i in range(u % 7, 60, 7)]
    cf.pretrain(graph_of(edges, 30, 60), d=4, k_layers=2, epochs=2, lr=0.05, neg_samples=1,
                rng=np.random.default_rng(3))
