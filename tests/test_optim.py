"""Adam against a reference implementation; cosine schedule endpoints."""
import numpy as np
import pytest

import _oracles as oracle
from drawseg import optim as O
from drawseg.tensor import Tensor
from drawseg.training import TrainConfig


class TestCosine:
    def test_endpoints_and_midpoint(self):
        floor = 1e-4 / 100.0
        assert O.cosine_lr(1e-4, 100, 0) == 1e-4
        assert O.cosine_lr(1e-4, 100, 100) == floor
        assert O.cosine_lr(1e-4, 100, 50) == (1e-4 + floor) / 2.0

    def test_default_floor_is_hundredth(self):
        cfg = TrainConfig(epochs=10, lr0=3e-3)
        assert O.cosine_lr(cfg.lr0, cfg.epochs, 10) == 3e-5
        assert O.cosine_lr(1e-2, 40, 40) == 1e-4

    def test_monotone_non_increasing(self):
        values = [O.cosine_lr(1e-2, 40, e) for e in range(41)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            O.cosine_lr(1e-4, 10, -1)
        with pytest.raises(ValueError):
            O.cosine_lr(1e-4, 10, 11)
        with pytest.raises(ValueError):
            O.cosine_lr(1e-4, 0, 0)


class TestAdam:
    def test_zero_gradient_is_fixed_point_but_counts(self):
        p = Tensor(np.array([1.5, -2.0]), requires_grad=True)
        adam = O.Adam([p])
        p.grad = np.zeros_like(p.data)
        adam.step([p], lr=0.1)
        np.testing.assert_array_equal(p.data, [1.5, -2.0])
        assert adam._slots[id(p)].t == 1

    def test_matches_reference_over_five_steps(self):
        rng = np.random.default_rng(5)
        theta0 = rng.standard_normal(4)
        grads = [rng.standard_normal(4) for _ in range(5)]
        expected = oracle.adam_reference(theta0, grads, lr=0.01)

        p = Tensor(theta0.copy(), requires_grad=True)
        adam = O.Adam([p])
        for g, want in zip(grads, expected):
            p.grad = g.copy()
            adam.step([p], lr=0.01)
            np.testing.assert_allclose(p.data, want, rtol=0, atol=1e-12)

    def test_parameters_update_independently(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([1.0]), requires_grad=True)
        adam = O.Adam([a, b])
        a.grad = np.array([0.5])
        b.grad = np.array([0.0])
        adam.step([a, b], lr=0.1)
        assert a.data[0] != 1.0
        assert b.data[0] == 1.0

    def test_quadratic_convergence(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        adam = O.Adam([p])
        steps = 0
        for _ in range(2000):
            p.grad = 2.0 * (p.data - 3.0)
            adam.step([p], lr=0.05)
            steps += 1
            if abs(p.data[0] - 3.0) < 0.01:
                break
        assert abs(p.data[0] - 3.0) < 0.01, f"not converged after {steps} steps"

    def test_nonfinite_gradient_rejected(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        adam = O.Adam([p])
        p.grad = np.array([np.nan])
        with pytest.raises(O.NumericalError):
            adam.step([p], lr=0.1)

    def test_rejected_step_changes_nothing(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0]), requires_grad=True)
        c = Tensor(np.array([4.0]), requires_grad=True)
        adam = O.Adam([a, b, c])
        a.grad, b.grad, c.grad = np.array([0.5, -0.5]), np.array([1.0]), np.array([2.0])
        adam.step([a, b, c], lr=0.1)
        before = {id(p): (p.data.copy(), adam._slots[id(p)].m.copy(),
                          adam._slots[id(p)].v.copy(), adam._slots[id(p)].t) for p in (a, b, c)}
        b.grad = np.array([np.nan])
        with pytest.raises(O.NumericalError):
            adam.step([a, b, c], lr=0.1)
        stranger = Tensor(np.array([0.0]), requires_grad=True)
        b.grad = np.array([1.0])
        with pytest.raises(KeyError):
            adam.step([a, b, stranger], lr=0.1)
        for p in (a, b, c):
            data, m, v, t = before[id(p)]
            slot = adam._slots[id(p)]
            np.testing.assert_array_equal(p.data, data)
            np.testing.assert_array_equal(slot.m, m)
            np.testing.assert_array_equal(slot.v, v)
            assert slot.t == t

    def test_skipped_parameter_keeps_state(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([1.0]), requires_grad=True)
        adam = O.Adam([a, b])
        a.grad = np.array([1.0])
        adam.step([a], lr=0.1)   # b frozen
        assert adam._slots[id(b)].t == 0
        np.testing.assert_array_equal(adam._slots[id(b)].m, [0.0])

    def test_unknown_parameter_rejected(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        adam = O.Adam([a])
        stranger = Tensor(np.array([1.0]), requires_grad=True)
        stranger.grad = np.array([1.0])
        with pytest.raises(KeyError):
            adam.step([stranger], lr=0.1)
