"""A walker steps on numpy alone: SciPy is needed only to fit error models.

The models are fitted here, in the test process.  A fresh interpreter
whose import system refuses every ``scipy`` module then imports the
walker path and steps office and open-space walkers from those models;
a scheme that reached for SciPy would show up as a contained failure.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.eval.setup import train_error_models
from repro.persistence import save_error_models

WALKER = """
import json
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is refused on the walker path")
        return None


sys.meta_path.insert(0, RefuseScipy())

import repro.core, repro.schemes, repro.eval.setup, repro.fleet
from repro.eval.setup import PlaceSetup, build_framework
from repro.persistence import load_error_models
from repro.world import build_office_place, build_open_space_place

models = load_error_models(sys.argv[1])
report = {}
for build in (build_office_place, build_open_space_place):
    setup = PlaceSetup.create(build(), seed=3)
    walk, snapshots = setup.record_walk(
        "survey", walk_seed=0, trace_seed=1, max_length=40.0
    )
    framework = build_framework(setup, models, walk.moments[0].position)
    decisions = [framework.step(snapshot) for snapshot in snapshots[:30]]
    report[setup.place.name] = {
        "steps": len(decisions),
        "failures": [d.failures for d in decisions if d.failures],
        "fusion_outputs": sum(d.outputs["fusion"] is not None for d in decisions),
        "positioned": sum(d.uniloc2_position is not None for d in decisions),
    }
report["scipy_modules"] = sorted(m for m in sys.modules if m.startswith("scipy"))
print(json.dumps(report))
"""


def test_walkers_step_without_scipy(tmp_path):
    models_file = tmp_path / "models.json"
    save_error_models(train_error_models(seed=0, n_walks_per_place=1), models_file)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", WALKER, str(models_file)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report.pop("scipy_modules") == []
    assert len(report) == 2
    for place, walked in report.items():
        assert walked["steps"] == 30, place
        assert walked["failures"] == [], place
        assert walked["fusion_outputs"] == 30, place
        assert walked["positioned"] == 30, place
