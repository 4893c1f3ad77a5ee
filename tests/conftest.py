import numpy as np
import pytest

from hml.symbols import MaterialModel


def polynomial_model(a_eps=1.5, b_eps=0.4, a_eta=1.2, b_eta=-0.25, sigma=0.3):
    """Smooth scalar model with hand-written analytic gradients.

    eps(x) = a_eps + b_eps*x1 + 0.1*x2**2, eta(x) = a_eta + b_eta*x3,
    sigma(x) = sigma constant.  Coefficients keep both fields positive on
    the unit-ish boxes used in tests.
    """

    def eps(x1, x2, x3):
        return a_eps + b_eps * x1 + 0.1 * x2**2

    def eta(x1, x2, x3):
        return a_eta + b_eta * x3 + 0.0 * x1

    def sig(x1, x2, x3):
        return np.broadcast_to(np.float64(sigma), np.broadcast(x1, x2, x3).shape).copy()

    def grad_eps(x1, x2, x3):
        shape = np.broadcast(x1, x2, x3).shape
        g = np.zeros((3,) + shape)
        g[0] = b_eps
        g[1] = 0.2 * np.asarray(x2)
        return g

    def grad_eta(x1, x2, x3):
        shape = np.broadcast(x1, x2, x3).shape
        g = np.zeros((3,) + shape)
        g[2] = b_eta
        return g

    return MaterialModel.scalar_smooth(
        eps=eps, eta=eta, sigma=sig, grad_eps=grad_eps, grad_eta=grad_eta,
        eps_min=0.5, eta_min=0.5,
    )


@pytest.fixture
def linear_speed_model():
    """v = 1 + 0.8*x1 (eps = v^-2, eta = 1, sigma = 0): rays are circular arcs, q = ln(1 + 0.8*x1)/0.8."""
    b = 0.8
    zero = lambda x1, x2, x3: np.zeros(np.broadcast(x1, x2, x3).shape)
    return MaterialModel.scalar_smooth(
        eps=lambda x1, x2, x3: (1.0 + b * x1) ** -2 + zero(x1, x2, x3),
        eta=lambda x1, x2, x3: 1.0 + zero(x1, x2, x3),
        sigma=zero,
        grad_eps=lambda x1, x2, x3: np.stack([-2 * b * (1.0 + b * x1) ** -3 + zero(x1, x2, x3),
                                              zero(x1, x2, x3), zero(x1, x2, x3)]),
        grad_eta=lambda x1, x2, x3: np.zeros((3,) + np.broadcast(x1, x2, x3).shape),
        eps_min=0.2,
        eta_min=1.0,
    )


@pytest.fixture
def smooth_model():
    return polynomial_model()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
