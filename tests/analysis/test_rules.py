"""Each rule is pinned by a known-bad fixture it must flag.

The fixtures live under ``tests/analysis/fixtures/`` — a directory name
the engine's discovery deliberately skips, so the whole-tree gate stays
clean while the snippets stay on disk as real parseable files.  Tests
feed them through :meth:`LintEngine.lint_text` with a forced ``src``
display path, because most rules only police production scope.
"""

from pathlib import Path

from repro.analysis import LintEngine

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name: str, display: str):
    """Lint one fixture file as if it lived at ``display``."""
    engine = LintEngine()
    return engine.lint_text((FIXTURES / name).read_text(), display=display)


def rules_of(findings):
    return [finding.rule for finding in findings]


class TestDET001:
    def test_flags_every_unseeded_shape(self):
        findings = lint_fixture("det001.py", "src/repro/fixture.py")
        assert rules_of(findings) == ["DET001"] * 4
        messages = " | ".join(f.message for f in findings)
        assert "default_rng() without a seed" in messages
        assert "numpy.random.normal" in messages
        assert "random.shuffle" in messages
        assert "random.random" in messages

    def test_unseeded_default_rng_flagged_even_in_tests(self):
        findings = lint_fixture("det001.py", "tests/test_fixture.py")
        assert rules_of(findings) == ["DET001"]
        assert "default_rng() without a seed" in findings[0].message

    def test_seeded_code_is_clean(self):
        assert lint_fixture("det001_good.py", "src/repro/fixture.py") == []


class TestDET002:
    def test_flags_calls_and_references(self):
        findings = lint_fixture("det002.py", "src/repro/fixture.py")
        assert rules_of(findings) == ["DET002"] * 3
        messages = " | ".join(f.message for f in findings)
        assert "time.time called" in messages
        assert "datetime.datetime.now called" in messages
        assert "time.perf_counter referenced" in messages

    def test_tests_may_read_the_clock(self):
        assert lint_fixture("det002.py", "tests/test_fixture.py") == []

    def test_obs_timer_modules_are_allowlisted(self):
        text = (FIXTURES / "det002.py").read_text()
        engine = LintEngine()
        assert engine.lint_text(text, display="src/repro/obs/clock.py") == []

    def test_metrics_timers_read_the_clock_module_too(self):
        text = (FIXTURES / "det002.py").read_text()
        engine = LintEngine()
        findings = engine.lint_text(text, display="src/repro/obs/metrics.py")
        assert rules_of(findings) == ["DET002"] * 3


class TestPUR001:
    def test_flags_every_impurity(self):
        findings = lint_fixture("pur001.py", "src/repro/fleet/fixture.py")
        # tags draws two findings: mutable annotation AND default_factory.
        assert rules_of(findings) == ["PUR001"] * 6
        messages = " | ".join(f.message for f in findings)
        assert "not frozen=True" in messages
        assert "typed as mutable list" in messages
        assert "default_factory=list" in messages
        assert "defaults to a lambda" in messages
        assert "threading.Lock()" in messages
        assert "lambda passed into run_walks()" in messages

    def test_dataclass_rules_only_bind_in_boundary_packages(self):
        findings = lint_fixture("pur001.py", "src/repro/eval/fixture.py")
        # Outside fleet/faults only the executor-call check applies.
        assert rules_of(findings) == ["PUR001"]
        assert "lambda passed into run_walks()" in findings[0].message


class TestUNIT001:
    def test_flags_bare_quantities_only(self):
        findings = lint_fixture("unit001.py", "src/repro/geometry/fixture.py")
        assert rules_of(findings) == ["UNIT001"] * 2
        assert all(f.tier == "warn" for f in findings)
        messages = " | ".join(f.message for f in findings)
        assert "'spacing'" in messages and "'spacing_m'" in messages
        assert "'radius'" in messages and "'radius_m'" in messages

    def test_only_unit_modules_are_watched(self):
        assert lint_fixture("unit001.py", "src/repro/eval/fixture.py") == []


class TestDET101:
    def test_flags_every_lineage_break(self):
        findings = lint_fixture("det101.py", "src/repro/schemes/fixture.py")
        assert rules_of(findings) == ["DET101"] * 4
        messages = " | ".join(f.message for f in findings)
        assert "module global 'GLOBAL_RNG'" in messages
        assert "seeded from constants only" in messages
        assert "does not derive from any seed parameter" in messages
        assert "flows into run_walks()" in messages

    def test_tests_are_out_of_scope(self):
        assert lint_fixture("det101.py", "tests/test_fixture.py") == []

    def test_nested_comprehension_leaves_the_enclosing_seed_alone(self):
        # A nested function's comprehension target is the nested
        # function's own: it must not lend ``x`` lineage from ``seeds``.
        body = "    x = 5\n    rng = np.random.default_rng(x)\n"
        nested = "    def inner():\n        return [x for x in seeds]\n"
        head = "import numpy as np\ndef go(seeds) -> None:\n"
        engine = LintEngine()
        for text in (head + body, head + nested + body):
            findings = engine.lint_text(text, display="src/repro/a.py")
            assert rules_of(findings) == ["DET101"], text
            assert "seeded from constants only" in findings[0].message

    def test_seed_lineage_through_aliases_and_arithmetic(self):
        text = (
            "import numpy as np\n"
            "def go(walk_seed: int, step: int) -> None:\n"
            "    base = walk_seed + 1000\n"
            "    packed = (base, step, 1)\n"
            "    rng = np.random.default_rng(packed)\n"
        )
        engine = LintEngine()
        assert engine.lint_text(text, display="src/repro/fixture.py") == []

    def test_attribute_chain_lineage(self):
        text = (
            "import numpy as np\n"
            "def go(self_like, job) -> None:\n"
            "    rng = np.random.default_rng(job.walk_seed + 777)\n"
        )
        engine = LintEngine()
        assert engine.lint_text(text, display="src/repro/fixture.py") == []

    def test_dataclass_seed_field_lineage(self):
        # The particle-filter shape: a dataclass seed field feeds the
        # placeholder RNG in __post_init__.
        text = (
            "import numpy as np\n"
            "class Filter:\n"
            "    def __post_init__(self) -> None:\n"
            "        self._rng = np.random.default_rng(self.seed)\n"
        )
        engine = LintEngine()
        assert engine.lint_text(text, display="src/repro/fixture.py") == []


class TestPUR101:
    def test_flags_every_smuggled_impurity(self):
        findings = lint_fixture("pur101.py", "src/repro/eval/fixture.py")
        assert rules_of(findings) == ["PUR101"] * 4
        messages = " | ".join(f.message for f in findings)
        assert "can carry a lambda" in messages
        assert "locally-defined function 'progress'" in messages
        assert "mutable listcomp" in messages
        assert "field fault_plan of WalkJob()" in messages

    def test_direct_lambda_left_to_pur001(self):
        text = (
            "def go(jobs):\n"
            "    from repro.fleet import run_walks\n"
            "    return run_walks(jobs, callback=lambda name: None)\n"
        )
        engine = LintEngine()
        findings = engine.lint_text(text, display="src/repro/fixture.py")
        assert rules_of(findings) == ["PUR001"]

    def test_jobs_list_is_not_a_mutable_field(self):
        # The jobs argument of run_walks is legitimately a list; only
        # WalkJob *fields* must be immutable.
        text = (
            "def go(specs):\n"
            "    from repro.fleet import run_walks\n"
            "    jobs = [spec for spec in specs]\n"
            "    return run_walks(jobs)\n"
        )
        engine = LintEngine()
        assert engine.lint_text(text, display="src/repro/fixture.py") == []

    def test_tests_are_out_of_scope(self):
        assert lint_fixture("pur101.py", "tests/test_fixture.py") == []


def test_every_rule_has_a_fixture():
    """Adding a rule without pinning its behavior is a lint-on-lint bug."""
    from repro.analysis import default_rules

    fixture_stems = {path.stem for path in FIXTURES.glob("*.py")}
    for rule in default_rules():
        assert rule.id.lower() in fixture_stems, (
            f"rule {rule.id} has no tests/analysis/fixtures/"
            f"{rule.id.lower()}.py fixture"
        )


def test_fixtures_parse():
    import ast

    for path in FIXTURES.glob("*.py"):
        ast.parse(path.read_text())
