"""``StackedDesign.gram_parts`` whitens and sums whole subjects a bounded span at a time.

No whitened copy of the design is ever held: ``whitened`` only attaches the
covariance, and each span's rows are whitened inside ``gram_parts``. Many spans
give the one-span sums up to rounding. Every design the benchmark compares with
a golden fits in one span, where the sums take one product each, bit for bit as
a whitened copy of the whole design would give them.
"""

from __future__ import annotations

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bernfit import NON_INCREASING, BasisSpec, ScenarioSpec, generate_scenario
from bernfit import functional
from bernfit.functional import build_design, fit_functional

ROOT = Path(__file__).resolve().parents[1]


def _relative_gap(got, want) -> float:
    return float(np.abs(np.asarray(got) - want).max() / np.abs(want).max())


@pytest.mark.parametrize("span_values", [1, 1500])
@pytest.mark.parametrize("kind", ["B", "B_sparse"])
def test_many_spans_give_the_one_span_sums(monkeypatch, kind, span_values):
    data = generate_scenario(ScenarioSpec(kind, n=60, seed=4), 0)
    spec = BasisSpec(5)
    design = build_design(data, "flcm", spec)
    one_fit = fit_functional(data, "flcm", spec, NON_INCREASING)
    designs = (design, design.whitened(one_fit.covariance))
    assert len(list(design._spans())) == 1
    one_span = [d.gram_parts() for d in designs]

    monkeypatch.setattr(functional, "_SPAN_VALUES", span_values)
    rows = [z.shape[0] for z, _ in design._spans()]
    assert len(rows) >= 3
    assert set(np.cumsum(rows)) <= set(design.subject_bounds())  # whole subjects only
    for d, want in zip(designs, one_span):
        for got_part, want_part in zip(d.gram_parts(), want):
            assert _relative_gap(got_part, want_part) <= 1e-12
    fit = fit_functional(data, "flcm", spec, NON_INCREASING)
    for got, want in ((fit.beta0_coefs, one_fit.beta0_coefs), (fit.beta1_coefs, one_fit.beta1_coefs)):
        assert _relative_gap(got, want) <= 1e-10


def test_whitening_holds_one_span_at_a_time(monkeypatch):
    data = generate_scenario(ScenarioSpec("B", n=400, seed=1, m=50), 0)
    spec = BasisSpec(10)
    design = build_design(data, "flcm", spec)
    cov = fit_functional(data, "flcm", spec).covariance
    monkeypatch.setattr(functional, "_SPAN_VALUES", 20000)
    tracemalloc.start()
    try:
        design.whitened(cov).gram_parts()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * design.z.nbytes


def test_every_golden_design_of_the_benchmark_fits_in_one_span(monkeypatch):
    # a golden design summed over several spans would move its whitened Gram in the
    # last bits, which can flip the band's eigenvector signs against the reference
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import workloads

    profiles = workloads.PROFILES
    designs = []  # (dataset, model, slope basis)
    for size in profiles["mc-paper"].values():
        for kind in workloads.IMSE_KINDS:
            scenario = ScenarioSpec(kind, n=size["n"], seed=workloads.REFERENCE_SEED)
            designs.append((generate_scenario(scenario, 0), scenario.model,
                            BasisSpec(scenario.default_order)))
    golden = profiles["large-n"]["golden"]
    scenario = ScenarioSpec("B", n=golden["n"], seed=workloads.REFERENCE_SEED, m=golden["m"])
    designs.append((generate_scenario(scenario, 0), "flcm", BasisSpec(golden["order"])))
    configs = workloads.CLI_CONFIGS
    for size in profiles["cli-session"].values():
        b = generate_scenario(ScenarioSpec("B", n=size["n_b"], seed=workloads.REFERENCE_SEED), 0)
        a = generate_scenario(ScenarioSpec("A", n=size["n_a"], seed=workloads.REFERENCE_SEED), 0)
        q = workloads.quantile_curves(size["n_q"], size["m_q"], workloads.REFERENCE_SEED)
        designs += [
            (b, "flcm", BasisSpec(configs["flcm"]["order"])),
            (b, "flcm", BasisSpec(max(configs["cv"]["candidates"]))),
            (b, "fofr", BasisSpec(configs["fofr"]["order"])),
            (q, "qfosr", BasisSpec(configs["qfosr"]["order"])),
            (a, "sofr", BasisSpec(configs["sofr"]["order"])),
        ]
    for data, model, spec in designs:
        design = build_design(data, model, spec)
        assert design.z.size <= functional._SPAN_VALUES, (model, spec, design.z.shape)
