"""Capture the goldens and reference statistics that the benchmark checks against.

Run from the root of a checkout of the commit whose outputs are the
reference (the benchmark's correctness gate compares later commits with it):

    python3 perfbench/capture_reference.py [--seeds 5]

It writes perfbench/reference.json with
- ``golden``: per workload, the fingerprint of every op of one pass at the
  golden sizes and the reference seed (compared at rtol 1e-6);
- ``stats``: per workload and op group, pooled statistics of full-size
  passes over several seeds, with the rule and tolerance a timed run must
  meet (see RULES).

Ops that fail their own checks are reported on the way; their outputs are
still fingerprinted, so the golden comparison fails on them as the check does.
"""

from __future__ import annotations

import argparse
import json
import shutil

import run

# group -> statistic -> (rule, tolerance); the reference value is captured
RULES = {
    "mc-paper": {
        **{f"imse:{kind}": {"efficiency_ratio": ("ratio_within", 2.0)}
           for kind in ("A", "B", "B_sparse", "C", "S1")},
        "coverage:B": {"coverage_mean": ("abs_within", 0.1)},
        "test:S1": {"rejection_rate": ("at_most_plus", 0.15)},
    },
    "large-n": {
        "fit": {"imse_max": ("max_factor", 5.0)},
        # one dataset per run: over 50 seeds its band covered the truth at 75-100%
        # of the grid, so the floor sits well below the worst dataset seen
        "ci": {"truth_covered_mean": ("at_least_minus", 0.45)},
    },
    "cli-session": {
        "fit-flcm": {"imse_max": ("max_factor", 5.0)},
        "fit-sofr": {"imse_max": ("max_factor", 5.0)},
    },
}
PASSES = {"mc-paper": 2, "large-n": 1, "cli-session": 2}


def pooled_over_seeds(cls, seeds: int, workdir) -> dict:
    """Pool each statistic over seeds: max for maxima, mean otherwise."""
    per_seed = []
    for seed in range(seeds):
        workload = cls("full", seed, workdir / f"s{seed}")
        workload.make_inputs()
        for k in range(PASSES[cls.name]):
            records, _ = run.run_pass(workload.ops(k))
            run.check_records(workload, records)
            for rec in records:
                if rec["problems"]:
                    print(f"{cls.name} seed {seed} pass {k}: {rec['op'].name} failed its "
                          f"check: {rec['problems'][0]}")
        per_seed.append(workload.pooled())
    out: dict = {}
    for group, checks in RULES[cls.name].items():
        for stat in checks:
            values = [s[group][stat] for s in per_seed]
            pooled = max(values) if stat.endswith("_max") else sum(values) / len(values)
            out.setdefault(group, {})[stat] = {"values": values, "pooled": pooled}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5)
    args = parser.parse_args()
    run.import_program()
    from workloads import WORKLOADS

    workdir = run.SCRATCH / "capture"
    reference: dict = {"golden": {}, "stats": {}}
    try:
        for name, cls in WORKLOADS.items():
            records = run.golden_pass(cls, workdir / name / "golden")
            for rec in records:
                if rec["error"] is not None:
                    raise SystemExit(f"golden {name} {rec['op'].name}: {rec['problems']}")
                if rec["problems"]:
                    # kept: the fingerprint still pins the output, and the check fails visibly
                    print(f"golden {name} {rec['op'].name} failed its check: {rec['problems']}")
            reference["golden"][name] = [
                {"name": rec["op"].name, "fingerprint": rec["fingerprint"]} for rec in records
            ]
            captured = pooled_over_seeds(cls, args.seeds, workdir / name)
            reference["stats"][name] = {
                group: {
                    stat: {"rule": rule, "tol": tol,
                           "reference": captured[group][stat]["pooled"],
                           "captured": captured[group][stat]["values"]}
                    for stat, (rule, tol) in checks.items()
                }
                for group, checks in RULES[name].items()
            }
            print(name, json.dumps(reference["stats"][name]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")


if __name__ == "__main__":
    main()
