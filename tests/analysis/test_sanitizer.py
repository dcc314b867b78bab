"""The determinism sanitizer: bisection, scrubbing, localization."""

import json

import numpy as np
import pytest

from repro.analysis.sanitizer import (
    Divergence,
    SanitizeReport,
    _localize,
    first_divergence,
    load_sanitize_report,
    normalize_event,
    sanitize_experiment,
)
from repro.formats import UnsupportedFormatError


class TestFirstDivergence:
    def test_identical_streams_are_clean(self):
        stream = [{"n": i} for i in range(16)]
        assert first_divergence(stream, list(stream)) is None
        assert first_divergence([], []) is None

    def test_single_mid_stream_difference_is_pinpointed(self):
        a = [{"n": i} for i in range(100)]
        b = [{"n": i} for i in range(100)]
        b[73] = {"n": "mutant"}
        assert first_divergence(a, b) == 73

    def test_first_record_difference(self):
        assert first_divergence([{"n": 0}], [{"n": 1}]) == 0

    def test_truncated_stream_diverges_at_the_cut(self):
        a = [{"n": i} for i in range(10)]
        assert first_divergence(a, a[:6]) == 6
        assert first_divergence(a[:6], a) == 6

    def test_key_order_does_not_matter(self):
        assert first_divergence([{"a": 1, "b": 2}], [{"b": 2, "a": 1}]) is None


class TestNormalization:
    def test_run_id_and_span_durations_are_scrubbed(self):
        event = {
            "type": "event",
            "kind": "span",
            "name": "uniloc.walk",
            "run_id": "run-123",
            "data": {"duration_ms": 4.2, "place": "daily"},
        }
        out = normalize_event(event)
        assert "run_id" not in out
        assert "duration_ms" not in out["data"]
        assert out["data"]["place"] == "daily"

    def test_timing_metric_values_are_scrubbed_but_present(self):
        event = {
            "type": "event",
            "kind": "metric",
            "name": "uniloc.step_ms",
            "run_id": "r",
            "data": {"instrument": "histogram", "values": [1.0, 2.0]},
        }
        out = normalize_event(event)
        assert out["data"]["values"] == "<timing>"
        assert out["data"]["instrument"] == "histogram"

    def test_counting_metrics_keep_their_values(self):
        event = {
            "type": "event",
            "kind": "metric",
            "name": "uniloc.steps",
            "data": {"instrument": "counter", "value": 7},
        }
        assert normalize_event(event)["data"]["value"] == 7


def emitting_runner(divergent: bool):
    """Build a fake experiment runner driving the real telemetry session.

    Emits two job events and constructs one generator per call; when
    ``divergent``, the second invocation seeds the RNG differently —
    the shape of a real lineage break.
    """
    calls = {"n": 0}

    def runner(name, **overrides):
        from repro.obs.telemetry import current_session

        calls["n"] += 1
        session = current_session()
        assert session is not None, "sanitizer must install a session"
        emitter = session.emitter(job_id="job-0000", walk_seed=11)
        emitter.emit("job", "job_start", place="daily")
        seed = 999 if divergent and calls["n"] == 2 else 11
        np.random.default_rng(seed)
        emitter.emit("job", "job_end", place="daily")

    return runner


class TestSanitizeExperiment:
    def test_deterministic_runner_is_clean(self, tmp_path):
        report = sanitize_experiment(
            "fake",
            seed=11,
            out_dir=tmp_path,
            runner=emitting_runner(divergent=False),
            warmup=False,
        )
        assert report.clean
        assert report.n_records == (3, 3)
        assert report.n_rng_constructions == (1, 1)

    def test_divergent_seed_is_localized_to_the_rng_record(self, tmp_path):
        report = sanitize_experiment(
            "fake",
            seed=11,
            out_dir=tmp_path,
            runner=emitting_runner(divergent=True),
            warmup=False,
        )
        assert not report.clean
        div = report.divergence
        assert div is not None
        assert div.record_a["type"] == "rng"
        assert div.record_a["seed"] == "11"
        assert div.record_b["seed"] == "999"
        # The rng record itself has no job context; localization walks
        # back to the nearest job-bearing event.
        assert div.job_id == "job-0000"
        assert div.walk_seed == 11
        assert "DIVERGED" in report.render()

    def test_perturbed_step_decision_is_localized_to_its_step(self, tmp_path):
        calls = {"n": 0}

        def runner(name, **overrides):
            from repro.obs.telemetry import current_session

            calls["n"] += 1
            emitter = current_session().emitter(job_id="job-0002", walk_seed=102)
            emitter.emit("job", "started", place="office", path="survey")
            for index in range(10):
                selected = "wifi"
                if calls["n"] == 2 and index == 7:
                    selected = "fusion"
                emitter.emit(
                    "step", "decision", index=index, decision={"selected": selected}
                )
                if index == 7:
                    emitter.emit("log", "after-step", note="no step index here")

        report = sanitize_experiment(
            "fake", out_dir=tmp_path, runner=runner, warmup=False
        )
        div = report.divergence
        assert div is not None
        assert div.record_a["data"]["decision"] == {"selected": "wifi"}
        assert div.record_b["data"]["decision"] == {"selected": "fusion"}
        assert (div.job_id, div.walk_seed, div.step) == ("job-0002", 102, 7)
        assert (
            "job job-0002, worker main, walk_seed 102, step 7" in report.render()
        )
        assert report.to_dict()["divergence"]["step"] == 7

    def test_step_comes_from_the_nearest_preceding_step_event(self):
        def event(kind, job_id, **data):
            return {"kind": kind, "name": "x", "job_id": job_id, "data": data}

        a = [
            event("step", "job-0000", index=4),
            event("step", "job-0001", index=9),
            event("step", "job-0000", index=5),
            event("log", "job-0000", note="a"),
        ]
        b = a[:3] + [event("log", "job-0000", note="b")]
        div = first_divergence(a, b)
        assert div == 3
        assert _localize(div, a, b).step == 5
        # A fault event names its own step.
        a[3] = event("fault", "job-0000", step=6, scheme="wifi")
        assert _localize(3, a, b).step == 6

    def test_rng_seed_reprs_are_stable_for_arrays_and_tuples(self, tmp_path):
        def runner(name, **overrides):
            np.random.default_rng((np.int64(3), 4))
            np.random.default_rng(np.array([1, 2]))

        report = sanitize_experiment(
            "fake", out_dir=tmp_path, runner=runner, warmup=False
        )
        assert report.clean
        assert report.n_rng_constructions == (2, 2)

    def test_scripted_clocks_are_restored(self, tmp_path):
        from repro.obs import clock

        sanitize_experiment(
            "fake",
            out_dir=tmp_path,
            runner=emitting_runner(divergent=False),
            warmup=False,
        )
        # Two subsequent reads of the real clock must not ramp by the
        # sanitizer's fixed tick.
        assert abs(clock.now_s() - clock.now_s()) < 60.0

    def test_default_rng_is_restored_after_the_run(self, tmp_path):
        sanitize_experiment(
            "fake",
            out_dir=tmp_path,
            runner=emitting_runner(divergent=False),
            warmup=False,
        )
        assert np.random.default_rng.__module__.startswith("numpy")


class TestReport:
    def make_report(self, clean: bool) -> SanitizeReport:
        divergence = None
        if not clean:
            divergence = Divergence(
                index=3,
                record_a={"n": 3},
                record_b={"n": 4},
                job_id="job-0001",
                worker_id="main",
                walk_seed=7,
                context=["job:job_start job-0001"],
            )
        return SanitizeReport(
            experiment="fig3",
            seed=0,
            n_records=(9, 9),
            n_rng_constructions=(2, 2),
            divergence=divergence,
        )

    def test_dict_roundtrip_and_header(self, tmp_path):
        payload = self.make_report(clean=False).to_dict()
        assert payload["format"] == "sanitize_report"
        assert payload["clean"] is False
        assert payload["divergence"]["index"] == 3
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload))
        assert load_sanitize_report(path)["experiment"] == "fig3"

    def test_foreign_format_is_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"format": "lint_report", "version": 1}))
        with pytest.raises(UnsupportedFormatError):
            load_sanitize_report(path)

    def test_render_shapes(self):
        clean = self.make_report(clean=True).render()
        assert "DETERMINISTIC" in clean
        dirty = self.make_report(clean=False).render()
        assert "DIVERGED at record #3, job job-0001" in dirty
        assert "walk_seed 7" in dirty


class TestCli:
    def test_unknown_experiment_is_a_usage_error(self, capsys):
        from repro.cli import main

        assert main(["sanitize", "definitely-not-registered"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


@pytest.mark.slow
def test_real_experiment_is_deterministic(tmp_path):
    """The paper's one-walk figure double-runs byte-identically."""
    report = sanitize_experiment("fig3", seed=0, out_dir=tmp_path)
    assert report.clean
    assert report.n_records[0] > 0
    assert report.n_rng_constructions[0] > 0
