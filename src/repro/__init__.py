"""UniLoc reproduction: a unified mobile localization framework.

This package reproduces *UniLoc: A Unified Mobile Localization Framework
Exploiting Scheme Diversity* (Du, Tong, Li - ICDCS 2018): five individual
localization schemes, online per-scheme error prediction via linear
regression on sensor-data features, and a locally-weighted Bayesian Model
Averaging ensemble, together with the simulated smartphone / campus
substrate the experiments run on.

Quickstart::

    from repro.eval import (
        PlaceSetup, build_framework, run_walk, train_error_models,
    )
    from repro.world import build_daily_path_place

    models = train_error_models(seed=0)
    setup = PlaceSetup.create(build_daily_path_place(), seed=3)
    walk, snapshots = setup.record_walk("path1")
    framework = build_framework(setup, models, walk.moments[0].position)
    result = run_walk(framework, setup.place, "path1", walk, snapshots)
    print(result.mean_error("uniloc2"))
"""

__version__ = "1.0.0"
