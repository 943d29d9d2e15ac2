import numpy as np
import pytest

import bundlecraft.numerics as nm
from bundlecraft import contrastive as cl
from bundlecraft.config import DEFAULTS
from bundlecraft.corpus import PartialBundleView
from bundlecraft.errors import DegenerateVectorError, IntegrityError
from bundlecraft.item_encoder import ItemInputs, encode_item_table, init_item_params

from conftest import numeric_grad, rel_err

F64 = np.float64


def aug_config(**kw):
    """The default augmentation config with ``kw`` overridden."""
    return cl.AugmentationConfig(**{**DEFAULTS["augment"], **kw})


def info_nce_oracle(anchors, positives, tau):
    """Straight-line evaluation over explicit loops."""
    n = anchors.shape[0]
    total = 0.0
    for i in range(n):
        a = anchors[i] / np.linalg.norm(anchors[i])
        sims = [
            float(a @ (positives[v] / np.linalg.norm(positives[v]))) for v in range(n)
        ]
        num = np.exp(sims[i] / tau)
        den = sum(np.exp(s / tau) for s in sims)
        total += -np.log(num / den)
    return total / n


class TestInfoNce:
    def test_all_equal_similarities_give_log_n(self, rng):
        v = rng.normal(size=(1, 6))
        anchors = nm.constant(np.repeat(v, 7, axis=0), F64)
        loss = cl.info_nce(anchors, anchors, tau=0.9)
        assert abs(loss.item() - np.log(7)) < 1e-12

    def test_orthogonal_pair_value(self):
        anchors = nm.constant(np.eye(2), F64)
        loss = cl.info_nce(anchors, anchors, tau=1.0)
        assert abs(loss.item() - np.log(1 + np.exp(-1.0))) < 1e-12

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(100):
            a = rng.normal(size=(3, 5))
            p = rng.normal(size=(3, 5))
            tau = float(rng.uniform(0.2, 3.0))
            got = cl.info_nce(nm.constant(a, F64), nm.constant(p, F64), tau).item()
            assert abs(got - info_nce_oracle(a, p, tau)) < 1e-9

    def test_nonnegative(self, rng):
        for _ in range(50):
            a = rng.normal(size=(4, 3))
            p = rng.normal(size=(4, 3))
            assert cl.info_nce(nm.constant(a, F64), nm.constant(p, F64), 0.7).item() >= 0

    def test_scale_invariance(self, rng):
        a = rng.normal(size=(4, 5))
        p = rng.normal(size=(4, 5))
        base = cl.info_nce(nm.constant(a, F64), nm.constant(p, F64), 1.3).item()
        scaled = cl.info_nce(nm.constant(7.3 * a, F64), nm.constant(7.3 * p, F64), 1.3).item()
        assert abs(base - scaled) < 1e-10

    def test_lower_positive_similarity_raises_loss(self):
        # two anchors; rotate anchor 0 away from its positive
        p = np.eye(2)
        a_good = np.eye(2)
        theta = 0.8
        a_bad = np.array([[np.cos(theta), np.sin(theta)], [0.0, 1.0]])
        good = cl.info_nce(nm.constant(a_good, F64), nm.constant(p, F64), 1.0).item()
        bad = cl.info_nce(nm.constant(a_bad, F64), nm.constant(p, F64), 1.0).item()
        assert bad > good

    def test_zero_vector_rejected(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DegenerateVectorError):
            cl.info_nce(nm.constant(a, F64), nm.constant(np.eye(2), F64), 1.0)

    def test_gradient_matches_finite_differences(self, rng):
        a = nm.parameter(rng.normal(size=(3, 4)), F64)
        p_val = rng.normal(size=(3, 4))
        loss = cl.info_nce(a, nm.constant(p_val, F64), 0.8)
        nm.backward(loss)

        def f():
            return cl.info_nce(nm.constant(a.value, F64), nm.constant(p_val, F64), 0.8).item()

        num = numeric_grad(f, a.value)
        assert rel_err(a.adjoint, num) < 1e-4

    def test_five_nodes_and_both_gradients(self, rng):
        """Two row normalizations, the cosine product, the temperature and the
        picked diagonal; the positives' gradient is checked too."""
        a = nm.parameter(rng.normal(size=(5, 4)), F64)
        p = nm.parameter(rng.normal(size=(5, 4)), F64)
        loss = cl.info_nce(a, p, 0.6)
        seen, stack = set(), [loss]
        while stack:
            node = stack.pop()
            seen.add(id(node))
            stack += [q for q in node.parents if id(q) not in seen and q.parents]
        assert len(seen) == 5
        nm.backward(loss)

        def f():
            return cl.info_nce(nm.constant(a.value, F64), nm.constant(p.value, F64), 0.6).item()

        for leaf in (a, p):
            assert rel_err(leaf.adjoint, numeric_grad(f, leaf.value)) < 1e-4


@pytest.fixture
def aug_setup(rng):
    params = init_item_params(5, 6, 3, 4, 1, rng, F64)
    inputs = ItemInputs(
        content=rng.normal(size=(5, 6)),
        feedback=rng.normal(size=(5, 3)) * np.array([[1], [1], [0], [1], [1]]),
        feedback_present=np.array([True, True, False, True, True]),
        id_warm=np.array([True, False, True, True, True]),
    )
    return params, inputs


def encode(inputs, params):
    return encode_item_table(inputs, params, dtype=F64).value


class TestAugmentItem:
    def test_na_is_identity(self, aug_setup, rng):
        params, inputs = aug_setup
        cfg = aug_config(item_mode="NA")
        aug = cl.augment_inputs(inputs, "NA", cfg, rng)
        np.testing.assert_array_equal(encode(aug, params), encode(inputs, params))

    def test_fd_zero_ratio_identity(self, aug_setup, rng):
        params, inputs = aug_setup
        cfg = aug_config(dropout_ratio=0.0)
        aug = cl.augment_inputs(inputs, "FD", cfg, rng)
        np.testing.assert_array_equal(encode(aug, params), encode(inputs, params))

    def test_fn_noise_bound_and_change(self, rng):
        cfg = aug_config(item_mode="FN", noise_weight=0.05)
        inputs = ItemInputs(
            content=rng.normal(size=(8, 6)),
            feedback=rng.normal(size=(8, 3)),
            feedback_present=np.ones(8, dtype=bool),
            id_warm=np.ones(8, dtype=bool),
        )
        changed = 0
        for _ in range(1000):
            aug = cl.augment_inputs(inputs, "FN", cfg, rng)
            assert np.abs(aug.content - inputs.content).max() <= 0.05 + 1e-12
            assert np.abs(aug.feedback - inputs.feedback).max() <= 0.05 + 1e-12
            if not np.array_equal(aug.content, inputs.content):
                changed += 1
        assert changed == 1000

    def test_md_forces_single_slot(self, rng):
        cfg = aug_config(dropout_ratio=1.0)
        inputs = ItemInputs(
            content=rng.normal(size=(10, 6)),
            feedback=rng.normal(size=(10, 3)),
            feedback_present=np.ones(10, dtype=bool),
            id_warm=np.ones(10, dtype=bool),
        )
        aug = cl.augment_inputs(inputs, "MD", cfg, rng)
        assert aug.forced_fallback.sum(axis=1).tolist() == [1] * 10

    def test_md_zero_ratio_no_slots(self, rng):
        cfg = aug_config(dropout_ratio=0.0)
        inputs = ItemInputs(
            content=rng.normal(size=(4, 6)),
            feedback=rng.normal(size=(4, 3)),
            feedback_present=np.ones(4, dtype=bool),
            id_warm=np.ones(4, dtype=bool),
        )
        aug = cl.augment_inputs(inputs, "MD", cfg, rng)
        assert not aug.forced_fallback.any()


class TestAugmentBundle:
    def view(self):
        return PartialBundleView(0, frozenset({1, 2, 3, 4}), frozenset({5, 6}))

    def test_zero_ratio_identity(self, rng):
        cfg = aug_config(dropout_ratio=0.0)
        assert cl.augment_bundle(self.view(), "ID", cfg, rng, 50) == self.view()

    def test_id_drops_half(self, rng):
        cfg = aug_config(dropout_ratio=0.5)
        out = cl.augment_bundle(self.view(), "ID", cfg, rng, 50)
        assert len(out.seeds) == 2
        assert out.seeds <= self.view().seeds
        assert out.targets == self.view().targets

    def test_id_singleton_noop(self, rng):
        cfg = aug_config(dropout_ratio=0.9)
        v = PartialBundleView(0, frozenset({1}), frozenset({2}))
        assert cl.augment_bundle(v, "ID", cfg, rng, 50) == v

    def test_ir_replaces_with_nonmembers(self, rng):
        cfg = aug_config(dropout_ratio=0.5)
        out = cl.augment_bundle(self.view(), "IR", cfg, rng, 50)
        assert len(out.seeds) == 4
        outside = out.seeds - self.view().seeds
        assert len(outside) == 2
        assert not outside & (self.view().seeds | self.view().targets)


def test_bad_modes_rejected():
    with pytest.raises(IntegrityError):
        aug_config(item_mode="XX")
    with pytest.raises(IntegrityError):
        aug_config(bundle_mode="XX")
    with pytest.raises(IntegrityError):
        aug_config(tau=0.0)
