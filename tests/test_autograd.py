"""Tensor engine: forward values, backward rules, finite-difference oracle."""

import gc
import math
import weakref

import numpy as np
import pytest

from selpred.autograd import (
    GradCheckError,
    Parameter,
    Parameters,
    Tensor,
    finite_difference_check,
    relu,
    sigmoid,
    zero_grads,
)
from selpred.checks import ConfigurationError, DomainError, ShapeError
from oracles import log, matmul, reshape, tensor_max


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(Tensor(np.eye(2)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_hand_product(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
        np.testing.assert_array_equal(out.data, [[17.0], [39.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_identity_associativity_bit_exact(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 3)))
        b = Tensor(rng.normal(size=(3, 3)))
        eye = Tensor(np.eye(3))
        left = matmul(matmul(a, eye), b)
        right = matmul(a, matmul(eye, b))
        np.testing.assert_array_equal(left.data, right.data)


class TestElementwise:
    def test_sigmoid_symmetry_point(self):
        assert sigmoid(Tensor(0.0)).item() == 0.5

    def test_relu_definition(self):
        assert relu(Tensor(-3.0)).item() == 0.0
        assert relu(Tensor(3.0)).item() == 3.0

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            log(Tensor([1.0, 0.0]))

    def test_incompatible_broadcast(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros(3)) + Tensor(np.zeros(4))


class TestReductions:
    def test_mean_hand(self):
        assert Tensor([1.0, 0.0, 1.0, 0.0]).mean().item() == 0.5

    def test_sum_axis0(self):
        out = Tensor([[1.0, 2.0], [3.0, 4.0]]).sum(axis=0)
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_empty_max_errors(self):
        with pytest.raises(DomainError):
            tensor_max(Tensor(np.array([])))

    def test_bad_axis(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 2))).sum(axis=2)


class TestBackward:
    def test_square_gradient(self):
        x = Parameter(3.0)
        (x * x).backward()
        # backward() is called on the product above
        assert x.grad == 6.0

    def test_sigmoid_gradient_at_zero(self):
        x = Parameter(0.0)
        sigmoid(x).backward()
        assert x.grad == pytest.approx(0.25, abs=1e-15)

    def test_fanout_accumulates(self):
        x = Parameter(2.0)
        y = x * x + x  # dy/dx = 2x + 1
        y.backward()
        assert x.grad == pytest.approx(5.0)

    def test_non_scalar_root_rejected(self):
        x = Parameter([1.0, 2.0])
        with pytest.raises(ShapeError):
            (x * x).backward()

    def test_second_backward_rejected(self):
        x = Parameter(1.0)
        y = x * x
        y.backward()
        with pytest.raises(RuntimeError):
            y.backward()

    def test_three_layer_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        ws = [Parameter(rng.normal(size=s) * 0.5)
              for s in [(4, 5), (5, 5), (5, 1)]]
        x = rng.normal(size=(6, 4))
        y = rng.normal(size=(6, 1))

        def fn():
            h = Tensor(x)
            for w in ws[:-1]:
                h = sigmoid(matmul(h, w))
            d = matmul(h, ws[-1]) - Tensor(y)
            return (d * d).mean()

        assert finite_difference_check(fn, ws) < 1e-5


class TestParameters:
    def test_members_are_views_of_the_buffers(self):
        a = Parameter([[1.0, 2.0]])
        b = Parameter(3.0)
        ps = Parameters([a, b])
        np.testing.assert_array_equal(ps.data, [1.0, 2.0, 3.0])
        ps.data += 1.0
        np.testing.assert_array_equal(a.data, [[2.0, 3.0]])
        assert b.data == 4.0
        (a.sum() * b).backward()
        np.testing.assert_array_equal(ps.grad, [4.0, 4.0, 5.0])
        zero_grads(ps)
        assert not ps.grad.any() and a.grad is not None

    def test_assignments_write_into_the_buffers(self):
        a = Parameter([1.0, 2.0])
        ps = Parameters([a])
        a.data = np.array([5.0, 6.0])
        a.grad = None
        np.testing.assert_array_equal(ps.data, [5.0, 6.0])
        np.testing.assert_array_equal(ps.grad, [0.0, 0.0])
        a.data += 1.0
        np.testing.assert_array_equal(ps.data, [6.0, 7.0])

    def test_data_assignment_writes_through(self):
        a = Parameter([1.0, 2.0])
        ps = Parameters([a])
        view, grad = a.data, a.grad
        a.data = np.array([5.0, 6.0])
        assert a.data is view
        np.testing.assert_array_equal(ps.data, [5.0, 6.0])
        with pytest.raises(ShapeError):
            a.data = np.zeros(3)
        np.testing.assert_array_equal(ps.data, [5.0, 6.0])
        a.grad = np.array([3.0, 4.0])
        assert a.grad is grad
        np.testing.assert_array_equal(ps.grad, [3.0, 4.0])
        with pytest.raises(ShapeError):
            a.grad = np.zeros(3)
        np.testing.assert_array_equal(ps.grad, [3.0, 4.0])
        a.grad = None
        assert a.grad is grad
        np.testing.assert_array_equal(ps.grad, [0.0, 0.0])

    def test_members_do_not_keep_their_parameters_alive(self):
        """A dropped buffer and its members are freed at once, not left to
        the cyclic garbage collector."""
        a = Parameter([1.0, 2.0])
        ps = Parameters([a])
        member = weakref.ref(a)
        gc.disable()
        try:
            del a, ps
            assert member() is None
        finally:
            gc.enable()

    def test_grad_assignment_rejects_wrong_shapes(self):
        a = Parameter([1.0, 2.0])
        ps = Parameters([a])
        with pytest.raises(ShapeError):
            a.grad = np.zeros(3)
        np.testing.assert_array_equal(ps.grad, [0.0, 0.0])
        # a wrong-shaped grad is refused before any member is taken
        b, c = Parameter([1.0, 2.0]), Parameter([3.0])
        c.grad = np.zeros(2)
        data = b.data
        with pytest.raises(ShapeError):
            Parameters([b, c])
        assert b.data is data and not b._held and not c._held
        Parameters([b])

    def test_plain_tensor_rejected_before_any_member_is_touched(self):
        """Only ``Parameter`` leaves are held: a plain tensor raises
        TypeError and keeps its class and attributes, and so does every
        other member."""
        a = Parameter([1.0, 2.0])
        t = Tensor([3.0])
        t.grad = np.array([4.0])
        data, attrs = a.data, dict(vars(t))
        for members in ([t], [a, t]):
            with pytest.raises(TypeError):
                Parameters(members)
            assert type(t) is Tensor and vars(t).keys() == attrs.keys()
            assert all(getattr(t, k) is v for k, v in attrs.items())
            assert a.data is data and a.grad is None and not a._held
        Parameters([a])

    @pytest.mark.parametrize("held", [False, True], ids=["unheld", "held"])
    def test_requires_grad_is_read_only(self, held):
        """A parameter always takes gradients: there is no switch to turn
        it off."""
        p = Parameter([1.0, 2.0])
        if held:
            Parameters([p])
        with pytest.raises(AttributeError):
            p.requires_grad = False
        assert p.requires_grad is True

    @pytest.mark.parametrize("leaf", [Tensor, Parameter])
    def test_leaf_takes_no_requires_grad_argument(self, leaf):
        """A ``Tensor`` leaf is a constant and a ``Parameter`` always takes
        gradients: neither constructor takes the switch."""
        with pytest.raises(TypeError):
            leaf([1.0], requires_grad=True)


class TestFiniteDifferenceCheck:
    def test_quadratic_form_is_near_exact(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=(4, 4))
        q = q + q.T
        x = Parameter(rng.normal(size=(1, 4)))

        def fn():
            return reshape(matmul(matmul(x, Tensor(q)), reshape(x, 4, 1)), ())

        assert finite_difference_check(fn, [x]) < 1e-9

    def test_constant_function_zero_grads(self):
        x = Parameter([1.0, 2.0])
        assert finite_difference_check(lambda: Tensor(5.0) * 1.0, [x]) == 0.0

    def test_nondeterministic_fn_rejected(self):
        rng = np.random.default_rng(0)
        x = Parameter(1.0)
        with pytest.raises(GradCheckError):
            finite_difference_check(lambda: x * rng.random(), [x])

    def test_bad_step_rejected(self):
        x = Parameter(1.0)
        with pytest.raises(ValueError):
            finite_difference_check(lambda: x * x, [x], h=0.0)

    @pytest.mark.parametrize("arg", ["h", "floor"])
    def test_nan_step_or_floor_rejected(self, arg):
        """A NaN step makes every numeric derivative NaN, and no difference
        exceeds a NaN floor: either read as perfect agreement."""
        x = Parameter(1.0)
        with pytest.raises(ConfigurationError,
                           match=f"^{arg}: nan is not finite$"):
            finite_difference_check(lambda: x * x, [x], **{arg: math.nan})

    @pytest.mark.parametrize("analytic, value", [
        (math.nan, lambda x: x), (math.inf, lambda x: x),
        (0.0, lambda x: 0.0 if x <= 1.0 else math.inf),
    ], ids=["nan-gradient", "inf-gradient", "inf-numeric"])
    def test_non_finite_derivative_is_infinite_error(self, analytic, value):
        """A one-parameter node whose backward reports ``analytic`` and
        whose value is ``value(x)``, checked at x = 1."""
        x = Parameter(1.0)

        def fn():
            return Tensor._op(value(float(x.data)), (x,),
                              lambda g: x._accum(np.array(analytic)))

        assert finite_difference_check(fn, [x]) == math.inf


@pytest.mark.parametrize("seed", range(25))
def test_registered_ops_gradcheck(seed):
    """Every differentiable op agrees with central differences at a random
    probe point (kept away from relu kinks by construction)."""
    rng = np.random.default_rng(seed)
    a = Parameter(rng.normal(size=(3, 4))
                  + 2.0 * np.sign(rng.normal(size=(3, 4))))
    b = Parameter(rng.normal(size=(3, 4)))
    c = Parameter(np.abs(rng.normal(size=(3, 4))) + 0.5)
    w = Parameter(rng.normal(size=(4, 2)))
    probe = Tensor(rng.normal(size=(3, 4)))
    probe2 = Tensor(rng.normal(size=(3, 2)))
    probe_cols = Tensor(rng.normal(size=4))
    probe_rows = Tensor(rng.normal(size=3))

    cases = [
        (lambda: ((a + b) * probe).sum(), [a, b]),
        (lambda: ((a - b) * probe).sum(), [a, b]),
        (lambda: ((a * b) * probe).sum(), [a, b]),
        (lambda: ((a / c) * probe).sum(), [a, c]),
        (lambda: (matmul(a, w) * probe2).sum(), [a, w]),
        (lambda: (relu(a) * probe).sum(), [a]),
        (lambda: (sigmoid(a) * probe).sum(), [a]),
        (lambda: (log(c) * probe).sum(), [c]),
        (lambda: (a * probe).mean(), [a]),
        (lambda: ((a * probe).sum(axis=0) * probe_cols).sum(), [a]),
        (lambda: (a.mean(axis=1) * probe_rows).sum(), [a]),
    ]
    for fn, params in cases:
        assert finite_difference_check(fn, params) < 1e-5
