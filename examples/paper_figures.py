#!/usr/bin/env python3
"""Reproduce paper artifacts by name through the experiment registry.

The registry (:mod:`repro.eval.registry`) is the single dispatch point
for every figure and table: pick experiments by their stable names, run
them with one call each, and render the same plain-text reports the CLI
prints.  All of them share the artifact cache and the fleet engine, so
the expensive offline work (training, surveys) happens at most once and
multi-walk experiments use all the workers you give them.

Run:
    REPRO_CACHE_DIR=.repro-cache python examples/paper_figures.py fig3 table5
    python examples/paper_figures.py --all --workers 4
"""

from __future__ import annotations

import argparse

from repro.eval.registry import (
    experiment_names,
    get_experiment,
    render_result,
    run_experiment,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "names", nargs="*", help=f"experiments to run (known: {', '.join(experiment_names())})"
    )
    parser.add_argument("--all", action="store_true", help="run every registered experiment")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    names = experiment_names() if args.all else args.names
    if not names:
        parser.error("give experiment names or --all")

    for name in names:
        experiment = get_experiment(name)
        print(f"=== {experiment.name}: {experiment.title} ===\n")
        result = run_experiment(name, seed=args.seed, workers=args.workers)
        print(render_result(experiment, result))
        print()


if __name__ == "__main__":
    main()
