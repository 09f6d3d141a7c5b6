import math

import numpy as np
import pytest

from calmkit.losses import (Box, ExponentialLoss, LogisticLoss, LossError,
                            MarginLoss, QuadraticLoss, SigmoidNNLoss,
                            StructuredCompositeLoss)

RNG = np.random.default_rng(42)


def central_diff_gradient(loss, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (loss.value(x + e) - loss.value(x - e)) / (2 * h)
    return g


def central_diff_hessian(loss, x, h=1e-5):
    n = x.size
    H = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        H[:, i] = (loss.gradient(x + e) - loss.gradient(x - e)) / (2 * h)
    return 0.5 * (H + H.T)


def sample_losses():
    Q = RNG.normal(size=(3, 3))
    Q = Q + Q.T
    A = RNG.normal(size=(4, 3))
    Hm = np.diag(RNG.uniform(0.5, 2.0, size=4))
    C = RNG.normal(size=(5, 3))
    d = RNG.choice([-1.0, 1.0], size=5)
    return [
        QuadraticLoss(Q, RNG.normal(size=3)),
        StructuredCompositeLoss(A, RNG.normal(size=3), Hm, RNG.normal(size=4)),
        LogisticLoss(C, d),
        ExponentialLoss(0.5 * C, d),
        SigmoidNNLoss(2, RNG.normal(size=(4, 3)), RNG.uniform(0, 1, size=4)),
    ]


def test_value_examples():
    assert QuadraticLoss(np.eye(2), np.zeros(2)).value(
        np.array([3.0, 4.0])) == pytest.approx(12.5)
    assert ExponentialLoss([[1.0, 0.0]], [1.0]).value(np.zeros(2)) == pytest.approx(1.0)
    assert LogisticLoss([[1.0]], [1.0]).value(np.zeros(1)) == pytest.approx(math.log(2.0))


def test_gradient_examples():
    assert np.allclose(QuadraticLoss(np.eye(2), np.zeros(2)).gradient(
        np.array([3.0, 4.0])), [3.0, 4.0])
    g = ExponentialLoss([[1.0, 0.0]], [1.0]).gradient(np.zeros(2))
    fd = central_diff_gradient(ExponentialLoss([[1.0, 0.0]], [1.0]), np.zeros(2))
    assert np.allclose(g, [-1.0, 0.0], atol=1e-12)
    assert np.max(np.abs(g - fd)) <= 1e-8
    nn = SigmoidNNLoss(1, [[1.0]], [0.0])
    x = np.zeros(2)
    assert np.max(np.abs(nn.gradient(x) - central_diff_gradient(nn, x))) <= 1e-6


def test_gradients_match_finite_differences_everywhere():
    for loss in sample_losses():
        for _ in range(20):
            x = RNG.normal(scale=0.8, size=loss.n)
            g = loss.gradient(x)
            fd = central_diff_gradient(loss, x)
            assert np.max(np.abs(g - fd)) <= 1e-6 * (1.0 + np.max(np.abs(g)))


def test_hessian_examples():
    q = QuadraticLoss(np.array([[2.0, 1.0], [1.0, 4.0]]), np.zeros(2))
    assert np.array_equal(q.hessian(RNG.normal(size=2)), q.Q)
    e = ExponentialLoss([[1.0, 0.0]], [1.0])
    assert np.allclose(e.hessian(np.zeros(2)), [[1.0, 0.0], [0.0, 0.0]])
    lg = LogisticLoss([[1.0]], [1.0])
    assert lg.hessian(np.zeros(1))[0, 0] == pytest.approx(0.25)


def test_hessian_matches_gradient_differences():
    for loss in sample_losses():
        if not loss.twice_differentiable:
            with pytest.raises(LossError):
                loss.hessian(np.zeros(loss.n))
            continue
        for _ in range(5):
            x = RNG.normal(scale=0.5, size=loss.n)
            H = loss.hessian(x)
            assert np.allclose(H, H.T, atol=1e-10)
            assert np.max(np.abs(H - central_diff_hessian(loss, x))) <= 1e-4


def test_lipschitz_bound_examples():
    assert QuadraticLoss(np.diag([2.0, 1.0]), np.zeros(2)).lipschitz_bound().value \
        == pytest.approx(2.0, abs=1e-9)
    lg = LogisticLoss(np.eye(2), np.ones(2))
    assert lg.lipschitz_bound().value == pytest.approx(0.25, abs=1e-9)
    e = ExponentialLoss([[1.0]], [1.0])
    lb = e.lipschitz_bound(Box.cube(1, -1.0, 1.0))
    assert lb.value == pytest.approx(math.e, rel=1e-12)
    assert lb.scope == "box"


def test_lipschitz_bound_is_an_upper_bound():
    # a "bound" below the spectral radius lets theory mode accept gamma just
    # above 1/L; it must cover both eigvalsh and an extended-precision
    # Rayleigh quotient, and stay within 1e-10 relative of them
    rng = np.random.default_rng(7)
    B = rng.standard_normal((200, 200))
    Q = B @ B.T / 200
    bound = QuadraticLoss(Q, np.zeros(200)).lipschitz_bound().value
    _, V = np.linalg.eigh(Q)
    v = V[:, -1].astype(np.longdouble)
    rayleigh = float((v @ (Q.astype(np.longdouble) @ v)) / (v @ v))
    top = max(float(np.linalg.eigvalsh(Q)[-1]), rayleigh)
    assert bound >= top
    assert bound - top <= 1e-10 * top


def test_exponential_needs_box():
    with pytest.raises(LossError, match="box"):
        ExponentialLoss([[1.0]], [1.0]).lipschitz_bound()
    with pytest.raises(LossError, match="box"):
        SigmoidNNLoss(1, [[1.0]], [0.0]).lipschitz_bound()


def test_gradient_lipschitz_property_on_box():
    box = Box.cube(3, -1.5, 1.5)
    for loss in sample_losses():
        if loss.n != 3:
            continue
        L = loss.lipschitz_bound(box).value
        for _ in range(40):
            x = RNG.uniform(-1.5, 1.5, size=3)
            y = RNG.uniform(-1.5, 1.5, size=3)
            lhs = np.linalg.norm(loss.gradient(x) - loss.gradient(y))
            assert lhs <= L * np.linalg.norm(x - y) * (1 + 1e-9) + 1e-12


def test_network_lipschitz_property_on_box():
    nn = SigmoidNNLoss(2, RNG.normal(size=(4, 3)), RNG.uniform(0, 1, size=4))
    box = Box.cube(nn.n, -2.0, 2.0)
    L = nn.lipschitz_bound(box).value
    for _ in range(40):
        x = RNG.uniform(-2, 2, size=nn.n)
        y = RNG.uniform(-2, 2, size=nn.n)
        lhs = np.linalg.norm(nn.gradient(x) - nn.gradient(y))
        assert lhs <= L * np.linalg.norm(x - y) * (1 + 1e-9) + 1e-12


def test_structured_composite_is_convex():
    loss = sample_losses()[1]
    for _ in range(40):
        x = RNG.normal(size=3)
        y = RNG.normal(size=3)
        assert np.dot(loss.gradient(x) - loss.gradient(y), x - y) >= -1e-10


def test_dimension_mismatch():
    with pytest.raises(LossError):
        QuadraticLoss(np.eye(2), np.zeros(2)).value(np.zeros(3))


def test_vectorized_paths_agree():
    for loss in sample_losses():
        X = RNG.normal(scale=0.5, size=(7, loss.n))
        vals = loss.value_many(X)
        grads = loss.gradient_many(X)
        for i, x in enumerate(X):
            # single-point calls are the one-row batch, bit for bit
            assert loss.value(x) == loss.value_many(x[None])[0]
            assert loss.gradient(x).tobytes() == loss.gradient_many(x[None])[0].tobytes()
            assert vals[i] == pytest.approx(loss.value(x), rel=1e-12, abs=1e-12)
            assert np.allclose(grads[i], loss.gradient(x), atol=1e-12)


def test_margin_losses_share_one_body():
    # logistic and exponential differ only in l, l', l'' and the bound
    assert LogisticLoss.__bases__ == ExponentialLoss.__bases__ == (MarginLoss,)
    for cls in (LogisticLoss, ExponentialLoss):
        own = {k for k, v in vars(cls).items() if callable(v)}
        assert own == {"ell", "dell", "ddell", "lipschitz_bound"}
    for k in ("__init__", "value_many", "gradient_many", "hessian_many", "to_json"):
        assert k in vars(MarginLoss)


def test_value_and_gradient_is_value_and_gradient():
    losses = sample_losses()
    assert len({loss.family for loss in losses}) == 5
    for loss in losses:
        for _ in range(20):
            x = RNG.normal(size=loss.n)
            f, g = loss.value_and_gradient(x)
            assert isinstance(f, float)
            assert g.tobytes() == loss.gradient(x).tobytes()
            if loss.family == "quadratic":   # Q x shared: F rounds differently
                assert f == pytest.approx(loss.value(x), rel=1e-14, abs=1e-300)
            else:
                assert f == loss.value(x)


def test_quadratic_value_many_is_value():
    rng = np.random.default_rng(5)
    n = 60
    A = rng.standard_normal((n, n))
    loss = QuadraticLoss(A + A.T, rng.standard_normal(n))
    X = rng.standard_normal((100, n))
    vals = loss.value_many(X)
    assert vals.shape == (100,)
    for v, x in zip(vals, X):
        assert v == pytest.approx(loss.value(x), rel=1e-14)


def test_margin_value_and_gradient_is_value_and_gradient():
    # the margin families share one product M x between the two
    assert "value_and_gradient" in MarginLoss.__dict__
    rng = np.random.default_rng(13)
    for n, m in ((1, 1), (3, 5), (40, 120)):
        C = rng.normal(size=(m, n))
        d = rng.choice([-1.0, 1.0], size=m)
        for loss in (LogisticLoss(C, d), ExponentialLoss(0.3 * C, d)):
            for _ in range(10):
                x = rng.normal(size=n)
                f, g = loss.value_and_gradient(x)
                assert isinstance(f, float) and f == loss.value(x)
                assert g.tobytes() == loss.gradient(x).tobytes()


def test_network_sigma_saturates_without_overflow_warning():
    # exp(800) overflows to inf; 1 / (1 + inf) is the exact limit 0
    z = np.array([-800.0, -709.0, 0.0, 800.0])
    s = SigmoidNNLoss._sigma(z)
    assert s[0] == 0.0 and s[2] == 0.5 and s[3] == 1.0
    assert 0.0 < s[1] < 1e-300


def test_hessian_is_the_one_row_batch_of_hessian_many():
    # calmness reads hessian(x_bar): the one-row batch must keep the
    # one-point formulas' bits; rows of a larger batch go through a gemm on
    # the margins and may differ from them in the last bits
    rng = np.random.default_rng(26)
    Q = rng.normal(size=(4, 4))
    C = rng.normal(size=(7, 4))
    d = rng.choice([-1.0, 1.0], size=7)
    A = rng.normal(size=(5, 4))
    Hm = np.diag(rng.uniform(0.5, 2.0, size=5))
    one_point = [
        (QuadraticLoss(Q + Q.T, rng.normal(size=4)), lambda loss, x: loss.Q.copy()),
        (StructuredCompositeLoss(A, rng.normal(size=4), Hm, rng.normal(size=5)),
         lambda loss, x: loss.A.T @ loss.H @ loss.A),
    ] + [(cls(C, d), lambda loss, x: (loss.M * loss.ddell(loss.M @ x)[:, None]).T @ loss.M)
         for cls in (LogisticLoss, ExponentialLoss)]
    for loss, formula in one_point:
        X = rng.normal(scale=0.7, size=(300, loss.n))
        batch = loss.hessian_many(X)
        assert batch.shape == (300, loss.n, loss.n)
        for x, Hb in zip(X, batch):
            H = loss.hessian(x)
            assert H.tobytes() == loss.hessian_many(x[None])[0].tobytes()
            assert H.tobytes() == formula(loss, x).tobytes()
            assert np.max(np.abs(Hb - H)) <= 1e-14 * np.max(np.abs(H))
    nn = SigmoidNNLoss(1, [[1.0]], [0.0])
    with pytest.raises(LossError):
        nn.hessian_many(np.zeros((3, 2)))
