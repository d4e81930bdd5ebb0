import sys

import numpy as np
import pytest

import hingedplate.basis
from hingedplate import PlateConfig, PlateSystem, uniform_density


@pytest.fixture(scope="session")
def small_cfg():
    """Coarse configuration for structural tests; seconds, not minutes."""
    return PlateConfig(n_modes_x=8, n_basis_y=6, n_quad_x=32, n_quad_y=16)


@pytest.fixture(scope="session")
def default_cfg():
    return PlateConfig()


@pytest.fixture(scope="session")
def small_system(small_cfg):
    return PlateSystem(small_cfg)


@pytest.fixture(scope="session")
def default_system(default_cfg):
    return PlateSystem(default_cfg)


@pytest.fixture(scope="session")
def default_uniform_pair(default_system):
    p = uniform_density(default_system)
    return default_system.solve_density(p)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def mode_field():
    """mode_field(system, {(m, j): coeff}) -> the coefficient vector of
    sum coeff * sin(m x) psi_j(y) on the system's basis."""
    def build(system, terms):
        c = np.zeros(system.dimension)
        for (m, j), coeff in terms.items():
            c[(m - 1) * system.cfg.n_basis_y + j] = coeff
        return c

    return build


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(name) -> a list that collects the positional arguments of
    every call to the function `name` of hingedplate.basis, wrapped at each
    module of the package that binds it."""
    def install(name):
        original = getattr(hingedplate.basis, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for key, module in list(sys.modules.items()):
            if key.split(".")[0] == "hingedplate" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
        return calls

    return install
