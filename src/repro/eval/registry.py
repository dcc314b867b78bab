"""The experiment registry: every paper figure and table, by stable name.

This is the single dispatch point for reproduction artifacts.  Each
entry maps a stable name (``"fig7"``, ``"table3"``, ...) to an
:class:`Experiment` descriptor carrying the implementation and the kind
of result it produces.  Every implementation is called the same way,
``run(seed, workers)``, so the CLI (``repro run fig7 --workers 4``),
``tools/generate_experiments.py``, and the examples all invoke
experiments through one function::

    from repro.eval.registry import run_experiment

    result = run_experiment("fig7", seed=0, workers=4)

Implementations live in :mod:`repro.eval.experiments` and execute
through the :mod:`repro.fleet` engine, so a registry run benefits from
the artifact cache and honors ``workers`` where the experiment fans out
over multiple walks.

This module is intentionally *not* re-exported from ``repro.eval`` —
``experiments`` imports ``repro.fleet`` which imports eval submodules,
and keeping the registry out of the package root keeps that import DAG
acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

from repro.eval import experiments as _exp
from repro.faults.chaos import chaos_matrix

#: Result kinds a registry entry can declare.
#:
#: ``walk``      one (possibly pooled) :class:`~repro.eval.runner.WalkResult`
#: ``walk_map``  dict of label -> WalkResult (e.g. with/without calibration)
#: ``rows``      list of per-location row dataclasses (Fig. 2)
#: ``table``     nested dict / dataclass table (Tables I-V)
KINDS = ("walk", "walk_map", "rows", "table")


@dataclass(frozen=True)
class Experiment:
    """One registered paper artifact.

    Attributes:
        name: stable registry key (also the CLI argument).
        title: human-readable description shown by ``repro run --list``.
        kind: one of :data:`KINDS`, telling renderers what ``run`` returns.
        run: implementation, called as ``run(seed, workers)`` with the
            master seed and the fleet worker count.
    """

    name: str
    title: str
    kind: str
    run: Callable[[int, int], Any]


EXPERIMENTS: dict[str, Experiment] = {
    e.name: e
    for e in (
        Experiment(
            name="fig2",
            title="Motivation: per-scheme error along the daily path",
            kind="rows",
            run=_exp._impl_fig2_motivation,
        ),
        Experiment(
            name="table1",
            title="Influence factors modeled per scheme and context",
            kind="table",
            run=_exp._impl_table1_influence_factors,
        ),
        Experiment(
            name="table2",
            title="Error-model regression coefficients and diagnostics",
            kind="table",
            run=_exp._impl_table2_error_models,
        ),
        Experiment(
            name="table3",
            title="Normalized RMSE of online error prediction (4 conditions)",
            kind="table",
            run=_exp._impl_table3_prediction_rmse,
        ),
        Experiment(
            name="fig3",
            title="UniLoc over the daily path (one walk)",
            kind="walk",
            run=_exp._impl_fig3_daily_path,
        ),
        Experiment(
            name="fig5",
            title="Scheme usage over the pooled daily path",
            kind="walk",
            run=_exp.daily_path_pooled,
        ),
        Experiment(
            name="fig6",
            title="Per-system accuracy over the pooled daily path",
            kind="walk",
            run=_exp.daily_path_pooled,
        ),
        Experiment(
            name="fig7",
            title="All eight campus paths, pooled",
            kind="walk",
            run=_exp._impl_fig7_eight_paths,
        ),
        Experiment(
            name="fig8a",
            title="Environment study: mall (10 trajectories)",
            kind="walk",
            run=partial(_exp._impl_fig8_environment, "mall"),
        ),
        Experiment(
            name="fig8b",
            title="Environment study: urban open space (10 trajectories)",
            kind="walk",
            run=partial(_exp._impl_fig8_environment, "urban-open-space"),
        ),
        Experiment(
            name="fig8c",
            title="Environment study: office (10 trajectories)",
            kind="walk",
            run=partial(_exp._impl_fig8_environment, "office"),
        ),
        Experiment(
            name="fig8d",
            title="Device heterogeneity: LG G3 with/without calibration",
            kind="walk_map",
            run=_exp._impl_fig8d_heterogeneity,
        ),
        Experiment(
            name="table4",
            title="Energy accounting over the daily path",
            kind="table",
            run=_exp._impl_table4_energy,
        ),
        Experiment(
            name="table5",
            title="Modeled response-time decomposition",
            kind="table",
            run=_exp._impl_table5_response_time,
        ),
        Experiment(
            name="chaos",
            title="Resilience matrix: UniLoc2 under single-scheme outages",
            kind="table",
            run=chaos_matrix,
        ),
    )
}


def experiment_names() -> list[str]:
    """Return every registered experiment name, in registry order."""
    return list(EXPERIMENTS)


def get_experiment(name: str) -> Experiment:
    """Return the descriptor for ``name``.

    Raises:
        ValueError: for an unregistered name (message lists valid ones).
    """
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; known: {', '.join(EXPERIMENTS)}"
        ) from None


def run_experiment(name: str, seed: int = 0, workers: int = 1) -> Any:
    """Run a registered experiment as ``run(seed, workers)``.

    Raises:
        ValueError: for an unregistered name.
    """
    return get_experiment(name).run(seed, workers)


# ---------------------------------------------------------------------------
# Rendering — shared by the CLI and tools/generate_experiments.py.
# ---------------------------------------------------------------------------


def render_walk(result: Any) -> str:
    """Render one walk's per-system errors, UniLoc1 usage bars and CDF."""
    from repro.eval.plots import render_bars, render_cdf
    from repro.eval.setup import SCHEME_NAMES

    lines = [f"{len(result.records)} estimates"]
    errors_by_system = {}
    for estimator in list(SCHEME_NAMES) + ["optsel", "uniloc1", "uniloc2"]:
        errors = result.errors(estimator)
        if errors:
            errors_by_system[estimator] = errors
            lines.append(
                f"  {estimator:9s} mean {np.mean(errors):6.2f} m   "
                f"p50 {np.percentile(errors, 50):6.2f} m   "
                f"p90 {np.percentile(errors, 90):6.2f} m"
            )
    lines.append("\nUniLoc1 scheme usage:")
    lines.append(render_bars(result.usage("uniloc1")))
    lines.append("\n" + render_cdf(errors_by_system))
    return "\n".join(lines)


def _render_rows(rows: list[Any]) -> str:
    by_scheme: dict[str, list[float]] = {}
    for row in rows:
        for scheme, error in row.errors.items():
            by_scheme.setdefault(scheme, []).append(error)
    lines = [f"{len(rows)} locations"]
    for scheme, errors in sorted(by_scheme.items()):
        lines.append(
            f"  {scheme:9s} mean {np.mean(errors):6.2f} m   "
            f"max {np.max(errors):6.2f} m   n={len(errors)}"
        )
    return "\n".join(lines)


def _render_table(value: Any, indent: str = "") -> str:
    from repro.core import RegressionSummary
    from repro.energy import EnergyReport, ResponseTimeBreakdown

    if isinstance(value, dict):
        lines = []
        for key, sub in value.items():
            rendered = _render_table(sub, indent + "  ")
            if "\n" in rendered or isinstance(sub, dict):
                lines.append(f"{indent}{key}:")
                lines.append(rendered)
            else:
                lines.append(f"{indent}{key:28s} {rendered.strip()}")
        return "\n".join(lines)
    if isinstance(value, list):
        return "\n".join(_render_table(item, indent) for item in value)
    if isinstance(value, RegressionSummary):
        betas = ", ".join(f"{b:+.3f}" for b in value.coefficients)
        return (
            f"beta=[{betas}] sigma_e={value.residual_std:.2f} "
            f"R2={value.r_squared:.2f} n={value.n_samples}"
        )
    if isinstance(value, EnergyReport):
        return (
            f"{indent}{value.system:9s} {value.power_mw:6.0f} mW  "
            f"{value.energy_j:7.1f} J"
        )
    if isinstance(value, ResponseTimeBreakdown):
        return (
            f"{indent}total {value.total_ms:.1f} ms "
            f"({value.transmission_fraction:.0%} transmissions, "
            f"UniLoc adds {value.uniloc_added_ms:.1f} ms)"
        )
    if isinstance(value, float):
        return f"{indent}{value:.3f}"
    if hasattr(value, "describe"):  # OutageRow, WalkFailure, ...
        return f"{indent}{value.describe()}"
    if isinstance(value, tuple):
        return indent + ", ".join(str(v) for v in value)
    return f"{indent}{value}"


def render_result(experiment: Experiment, result: Any) -> str:
    """Render an experiment result as the CLI's plain-text report."""
    if experiment.kind == "walk":
        return render_walk(result)
    if experiment.kind == "walk_map":
        sections = []
        for label, walk_result in result.items():
            sections.append(f"== {label} ==\n{render_walk(walk_result)}")
        return "\n\n".join(sections)
    if experiment.kind == "rows":
        return _render_rows(result)
    return _render_table(result)
