"""``spawn_rngs`` gives the streams of ``spawn_rng``, bit for bit.

A band or a bootstrap test seeds draw b with the stream keyed (seed, b).
``spawn_rngs`` hashes every key's SeedSequence at once and sets one reused
generator to each seeded state, so its generators must start in exactly the
state ``np.random.default_rng(SeedSequence(seed, spawn_key=(b,)))`` starts in
and draw the same numbers. A negative seed, and a draw count whose keys would
not fit one 32-bit word, are configuration errors (exit code 2), refused
before anything is drawn or allocated.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from bernfit import (
    NON_NEGATIVE,
    BasisSpec,
    ConfigError,
    ScenarioSpec,
    bootstrap_shape_test,
    generate_scenario,
    projection_ci,
    write_dataset,
)
from bernfit.cli import run_cli
from bernfit.utils import spawn_rngs

_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**200 + 5, np.int64(7), 20220909]


@pytest.mark.parametrize("seed", _SEEDS, ids=str)
def test_each_generator_starts_where_numpy_seeds_it(seed):
    n = 37
    count = 0
    for b, rng in enumerate(spawn_rngs(seed, 600)):
        want = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        assert rng.bit_generator.state == want.bit_generator.state
        assert np.array_equal(rng.standard_normal(22), want.standard_normal(22))
        assert np.array_equal(rng.integers(0, n, size=n), want.integers(0, n, size=n))
        count += 1
    assert count == 600


def test_an_empty_count_yields_nothing():
    assert list(spawn_rngs(3, 0)) == []


@pytest.mark.parametrize("seed, count", [(-1, 10), (-(2**70), 0), (0, 2**32 + 1), (0, -1)])
def test_a_negative_seed_or_an_out_of_word_count_is_refused_at_the_call(seed, count):
    with pytest.raises(ConfigError):
        spawn_rngs(seed, count)


@pytest.mark.parametrize(
    "draws, seed, message",
    [(2**32, 0, "2\\*\\*32"), (100, -1, "non-negative: seed -1")],
    ids=["draws-2**32", "seed-negative"],
)
@pytest.mark.parametrize("call", ["band", "test"])
def test_draws_beyond_one_key_word_or_a_negative_seed_are_refused_before_the_data(
        call, draws, seed, message):
    # the data is None: the refusal comes before the data is touched, the design
    # is built or fit, or any draw array is allocated
    run = projection_ci if call == "band" else bootstrap_shape_test
    with pytest.raises(ConfigError, match=message):
        run(None, "sofr", BasisSpec(4), NON_NEGATIVE, draws=draws, seed=seed)


def _sofr_csv(path):
    write_dataset(generate_scenario(ScenarioSpec("A", n=20, seed=0), 0), path, "wide_csv")
    return path


@pytest.mark.parametrize(
    "command, config",
    [
        ("ci", {"draws": 2**32}),
        ("test-shape", {"bootstrap": 2**32, "shape": {"kind": "non_negative"}}),
        ("ci", {"seed": -1}),
        ("test-shape", {"seed": -1, "shape": {"kind": "non_negative"}}),
    ],
)
def test_the_cli_exits_2_on_either_refusal(tmp_path, capsys, command, config):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"model": "sofr", "order": 4, **config}))
    argv = [command, "--data", str(_sofr_csv(tmp_path / "a.csv")), "--config", str(config_path),
            "--out", str(tmp_path / "out.json")]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert err.count("\n") == 1
    assert not (tmp_path / "out.json").exists()
