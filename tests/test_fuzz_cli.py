import importlib.util
import random
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "fuzz_cli.py"
_spec = importlib.util.spec_from_file_location("fuzz_cli", _TOOL)
fuzz_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fuzz_cli)


def test_three_small_examples_stay_inside_the_contract():
    # a smoke run of the tool, about half a second on small grids
    found, exits = fuzz_cli.fuzz(3, seed=0, small_grids=True)
    assert found == []
    assert sum(exits.values()) == 9 and {rc for _, rc in exits} <= set(fuzz_cli.CONTRACT)


def test_draws_repeat_and_keep_to_their_ranges():
    draws = []
    for _ in range(2):
        rnd = random.Random(4)
        draws.append([fuzz_cli.draw_config(rnd, small_grid=True) for _ in range(50)])
    first, again = draws
    assert first == again
    for cfg in first:
        plate = set(cfg) & set(fuzz_cli.SAMPLERS)
        assert 1 <= len(plate) <= 3
        assert 0.0 <= cfg.get("sigma", 0.0) <= 0.999
        assert 1e-8 <= cfg.get("ell", 1.0) <= 1e6
        assert 1e-9 <= cfg.get("alpha", 0.5) <= 1.0
        assert 1.0 <= cfg.get("beta", 3.0) <= 1e100
        assert cfg["n_quad_x"] % 2 == 0 and cfg["n_quad_x"] >= cfg["n_modes_x"]


def test_reports_exits_outside_the_contract_and_escaped_exceptions(tmp_path, monkeypatch):
    outcomes = iter([1, 0, ValueError("boom")])

    def fake_main(argv):
        outcome = next(outcomes)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr(fuzz_cli, "cli_main", fake_main)
    exits = fuzz_cli.Counter()
    found = fuzz_cli.run_example(7, {"beta": 10.0}, tmp_path, exits)
    assert len(found) == 2
    assert found[0] == 'example 7: solve: exit 1; config {"beta": 10.0}'
    assert found[1].startswith("example 7: certify --suite all: ValueError: boom (at ")
    assert found[1].endswith('config {"beta": 10.0}')
    assert exits == {("solve", 1): 1, ("optimize", 0): 1, ("certify", "ValueError"): 1}
