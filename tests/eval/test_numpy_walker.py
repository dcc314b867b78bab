"""A walker loads only what it runs: numpy, the walker path, no pool.

The models are fitted here, in the test process: SciPy is needed only to
fit error models.  A fresh interpreter whose import system refuses every
``scipy`` module, the process-pool machinery (``multiprocessing``,
``concurrent.futures``) and the post-run log tools (``repro.obs.report``,
``profiler``, ``exporters``) then imports the walker path and the fleet
package, steps office and open-space walkers from those models, and runs
one office job through the fleet's inline path.  A scheme that reached
for a refused module would show up as a contained failure; an import
would fail the interpreter.
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

REFUSED = (
    "scipy",
    "multiprocessing",
    "concurrent.futures",
    "repro.obs.report",
    "repro.obs.profiler",
    "repro.obs.exporters",
)


def refused(name):
    return any(name == r or name.startswith(r + ".") for r in REFUSED)


class Refuse:
    def find_spec(self, name, path=None, target=None):
        if refused(name):
            raise ImportError(f"{name} is refused on the walker path")
        return None


sys.meta_path.insert(0, Refuse())

import repro.core, repro.schemes, repro.eval.setup, repro.fleet, repro.fleet.cache
from repro.eval.setup import PlaceSetup, build_framework
from repro.fleet import ArtifactCache, WalkJob, run_walks
from repro.persistence import load_error_models
from repro.world import build_office_place, build_open_space_place

models = load_error_models(sys.argv[1])
cache = ArtifactCache()
cache.put_error_models(models, 0)
report = {}
for build in (build_office_place, build_open_space_place):
    setup = PlaceSetup.create(build(), seed=3)
    cache.put_place_setup(setup.place.name, setup)
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
[inline] = run_walks(
    [WalkJob("office", "survey", setup_seed=3, models_seed=0, max_length=20.0)],
    cache=cache,
)
report["inline_steps"] = len(inline.records)
report["loaded"] = sorted(m for m in sys.modules if refused(m))
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
    assert report.pop("loaded") == []
    assert report.pop("inline_steps") > 0
    assert len(report) == 2
    for place, walked in report.items():
        assert walked["steps"] == 30, place
        assert walked["failures"] == [], place
        assert walked["fusion_outputs"] == 30, place
        assert walked["positioned"] == 30, place
