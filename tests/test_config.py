import json
import math
import re

import numpy as np
import pytest

from hingedplate import InputError, PlateConfig, load_config
from hingedplate.eigensolve import EIG_TOL
from hingedplate.optimize import MAX_SWEEPS, STAGNATION_TOL


def test_mass_target_examples():
    # the mass target is the area 2*pi*ell of (0, pi) x (-ell, ell)
    assert PlateConfig(ell=math.pi / 5).target_mass == pytest.approx(2 * math.pi ** 2 / 5)
    assert PlateConfig(ell=1.0).target_mass == pytest.approx(2 * math.pi)
    assert PlateConfig(ell=0.5).target_mass == pytest.approx(math.pi)


def test_sublevel_fraction_examples():
    assert PlateConfig(alpha=0.5, beta=3.0).sublevel_fraction == pytest.approx(0.8)
    assert 0.0 < PlateConfig(alpha=0.5, beta=3.0).sublevel_fraction < 1.0
    assert PlateConfig(alpha=0.5, beta=1.5).sublevel_fraction == pytest.approx(0.5)
    # beta -> 1+ sends the fraction to 0+
    assert PlateConfig(alpha=0.5, beta=1.0 + 1e-9).sublevel_fraction < 1e-8


def test_sublevel_fraction_increasing_in_beta():
    alphas = [0.1, 0.5, 0.9]
    betas = np.linspace(1.01, 8.0, 40)
    for a in alphas:
        vals = [PlateConfig(alpha=a, beta=float(b)).sublevel_fraction for b in betas]
        assert np.all(np.diff(vals) > 0)
        assert all(0.0 < v < 1.0 for v in vals)


@pytest.mark.parametrize("bad", [
    dict(sigma=-0.1), dict(sigma=1.0), dict(ell=0.0), dict(ell=-1.0),
    dict(alpha=1.0), dict(alpha=0.0), dict(beta=1.0), dict(beta=0.9),
    dict(alpha=1.2, beta=2.0), dict(n_modes_x=0), dict(n_quad_y=0),
    dict(n_basis_y=0), dict(n_quad_x=0),
])
def test_invalid_configs_rejected(bad):
    with pytest.raises(InputError):
        PlateConfig(**bad)


def test_y_quadrature_needs_one_node_per_profile():
    # n_quad_y = n_basis_y - 1 leaves the weighted mass matrix singular
    with pytest.raises(ValueError, match="n_quad_y=11 is below n_basis_y=12"):
        PlateConfig(n_basis_y=12, n_quad_y=11)
    assert PlateConfig(n_basis_y=12, n_quad_y=12).n_quad_y == 12


def test_x_quadrature_needs_one_node_per_mode():
    # n_quad_x = n_modes_x - 1 leaves the weighted mass matrix singular
    with pytest.raises(ValueError, match="n_quad_x=19 is below n_modes_x=20"):
        PlateConfig(n_modes_x=20, n_quad_x=19)
    assert PlateConfig(n_modes_x=20, n_quad_x=20).n_quad_x == 20


def test_x_quadrature_must_be_even():
    # an odd count leaves a midline node without a mirror partner
    with pytest.raises(ValueError, match="n_quad_x=95 is odd"):
        PlateConfig(n_quad_x=95)
    assert PlateConfig(n_quad_x=94).n_quad_x == 94


def test_defaults_match_documented_values():
    cfg = PlateConfig()
    assert cfg.sigma == 0.2
    assert cfg.ell == pytest.approx(math.pi / 5)
    assert (cfg.alpha, cfg.beta) == (0.5, 3.0)
    assert (cfg.n_modes_x, cfg.n_basis_y) == (20, 12)
    assert (cfg.n_quad_x, cfg.n_quad_y) == (96, 48)
    assert list(cfg.as_dict()) == ["sigma", "ell", "alpha", "beta",
                                   "n_modes_x", "n_basis_y", "n_quad_x", "n_quad_y"]
    # the solver settings are constants, at the values the fields had
    assert MAX_SWEEPS == 100
    assert STAGNATION_TOL == 1e-10
    assert EIG_TOL == 1e-12


def test_load_config_partial_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sigma": 0.1, "n_modes_x": 5}))
    cfg = load_config(path)
    assert cfg.sigma == 0.1
    assert cfg.n_modes_x == 5
    assert cfg.ell == pytest.approx(math.pi / 5)  # untouched default


def test_load_config_rejects_unknown_and_bad_types(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sigmaa": 0.1}))
    with pytest.raises(InputError, match="unknown config keys"):
        load_config(path)
    path.write_text(json.dumps({"n_modes_x": 2.5}))
    with pytest.raises(InputError, match="must be an integer"):
        load_config(path)
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(InputError, match="JSON object"):
        load_config(path)
    path.write_text('{"sigma": 0.1,')
    with pytest.raises(InputError, match="is not valid JSON"):
        load_config(path)


def test_load_config_rejects_a_repeated_key(tmp_path):
    # json.load keeps the last value of a repeated key: beta would be 1e12
    path = tmp_path / "cfg.json"
    path.write_text('{"beta": 3.0, "alpha": 0.5, "beta": 1e12}')
    with pytest.raises(InputError, match=re.escape(f"config file {path} repeats the key 'beta'")):
        load_config(path)
    path.write_text('{"sigma": {"a": 1, "a": 2}}')  # nested objects too
    with pytest.raises(InputError, match="repeats the key 'a'"):
        load_config(path)
    path.write_text('{"beta": 3.0, "alpha": 0.5}')
    assert load_config(path).beta == 3.0


@pytest.mark.parametrize("key", ["target_mass", "sublevel_fraction"])
def test_derived_values_are_not_config_keys(tmp_path, key):
    # the two derived properties stay out of the key set and the manifest
    assert key not in PlateConfig().as_dict()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: 1.0 if key == "target_mass" else 0.5}))
    with pytest.raises(InputError, match="unknown config keys"):
        load_config(path)


def test_int_bounds_are_stored_as_floats():
    cfg = PlateConfig(alpha=1 / 2, beta=3, ell=1)
    assert type(cfg.beta) is float and cfg.beta == 3.0
    assert type(cfg.ell) is float and cfg.ell == 1.0
    assert cfg == PlateConfig(alpha=0.5, beta=3.0, ell=1.0)


@pytest.mark.parametrize("bad, message", [
    (dict(n_modes_x=True), "n_modes_x must be an integer"),
    (dict(n_quad_x=96.0), "n_quad_x must be an integer"),
    (dict(beta=True), "beta must be a number"),
    (dict(sigma="0.2"), "sigma must be a number"),
    (dict(alpha=None), "alpha must be a number"),
    (dict(beta=math.inf), "beta must be finite"),
    (dict(ell=math.inf), "ell must be finite"),
    (dict(sigma=math.nan), "sigma must be finite"),
    (dict(alpha=math.nan), "alpha must be finite"),
    (dict(ell=-math.inf), "ell must be finite"),
    (dict(alpha=-math.inf), "alpha must be finite"),
    (dict(beta=10 ** 400), "beta must be finite"),
    (dict(ell=1e155), "ell=1e\\+155 is too large"),
])
def test_field_types_checked_at_construction(bad, message):
    # a bool is an int to Python, but True as a mode count is a typo
    with pytest.raises(InputError, match=message):
        PlateConfig(**bad)


def test_largest_ell_with_a_finite_square_is_accepted():
    assert PlateConfig(ell=1e154).ell == 1e154
