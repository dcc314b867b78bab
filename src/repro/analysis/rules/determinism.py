"""DET001/DET002: the reproducibility invariants, as AST rules.

Every figure in the repro is a pure function of explicit seeds, and the
fleet engine promises byte-identical results for any worker count.  Two
things silently break that promise: a random draw whose seed came from
the OS (DET001), and a wall-clock read whose value leaks into computed
results or cache keys (DET002).  Both are trivially greppable in code
review and trivially missed — so they are rules.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import Finding, Rule, SourceFile
from repro.analysis.names import canonicalize, dotted_name

#: ``numpy.random`` attributes that are *not* the legacy global-state
#: API: the explicit-generator constructors and seed containers.
_NP_EXPLICIT = frozenset(
    {
        "default_rng",
        "Generator",
        "RandomState",
        "SeedSequence",
        "BitGenerator",
        "Philox",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "SFC64",
    }
)


class UnseededRandomness(Rule):
    """DET001: every random draw must trace back to an explicit seed.

    Three shapes are flagged:

    * ``np.random.default_rng()`` **with no arguments** — seeds from OS
      entropy; flagged everywhere, tests included, because an unseeded
      test is a flaky test.
    * any call into the legacy ``numpy.random`` global-state API
      (``np.random.normal``, ``np.random.seed``, ...) — the shared
      stream makes results depend on call order across the whole
      process; flagged in ``src`` scope.
    * any call into the stdlib ``random`` module — same shared-stream
      problem; flagged in ``src`` scope.
    """

    id = "DET001"
    tier = "error"
    title = "unseeded or global-state randomness"

    def check(self, file: SourceFile) -> list[Finding]:
        bindings = file.bindings
        findings: list[Finding] = []
        for node in file.nodes:
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            head = dotted.partition(".")[0]
            if head not in bindings:
                continue  # not an imported name; out of scope
            canonical = canonicalize(dotted, bindings)
            if canonical == "numpy.random.default_rng":
                if not node.args and not node.keywords:
                    findings.append(
                        self.finding(
                            file,
                            node,
                            "default_rng() without a seed draws from OS "
                            "entropy; pass an explicit seed (or seed tuple)",
                        )
                    )
                continue
            if not file.in_src:
                continue
            prefix, _, attr = canonical.rpartition(".")
            if prefix == "numpy.random" and attr not in _NP_EXPLICIT:
                findings.append(
                    self.finding(
                        file,
                        node,
                        f"numpy.random.{attr} uses the process-global "
                        "random state; use an explicitly seeded "
                        "default_rng(...) generator",
                    )
                )
            elif canonical.startswith("random."):
                findings.append(
                    self.finding(
                        file,
                        node,
                        f"stdlib {canonical} uses the process-global "
                        "random state; use an explicitly seeded "
                        "numpy default_rng(...) generator",
                    )
                )
        return findings


#: Canonical names whose return value is a clock read.
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: The only production module allowed to touch the raw clock: the
#: injectable clock helper itself.  Everything else, the obs timers
#: included, goes through :mod:`repro.obs.clock` so tests can freeze
#: time.  This list is part of the rule because it is an architectural
#: statement, not a grandfathered violation.
DET002_ALLOWED_MODULES = ("repro/obs/clock.py",)


class WallClockRead(Rule):
    """DET002: no raw wall-clock reads outside :mod:`repro.obs.clock`.

    A ``time.time()`` in a simulation, cache, or serialization path
    makes output depend on when it ran — the cache-age bug class this
    repo has already shipped once.  Production code reads time through
    :func:`repro.obs.clock.now_s` / ``monotonic_s`` (overridable in
    tests); both calls *and* bare references (``callback=time.time``)
    are flagged.  Tests are exempt (benchmarks legitimately measure
    wall time), as is :data:`DET002_ALLOWED_MODULES`.
    """

    id = "DET002"
    tier = "error"
    title = "raw wall-clock read in deterministic path"

    def check(self, file: SourceFile) -> list[Finding]:
        if not file.in_src or file.display.endswith(DET002_ALLOWED_MODULES):
            return []
        bindings = file.bindings
        findings: list[Finding] = []
        for node in file.nodes:
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            parent = file.parent_of(node)
            if isinstance(parent, ast.Attribute):
                continue  # only report the full dotted chain once
            dotted = dotted_name(node)
            if dotted is None:
                continue
            head = dotted.partition(".")[0]
            if head not in bindings:
                continue
            canonical = canonicalize(dotted, bindings)
            if canonical not in _WALL_CLOCK:
                continue
            how = (
                "called"
                if isinstance(parent, ast.Call) and parent.func is node
                else "referenced"
            )
            findings.append(
                self.finding(
                    file,
                    node,
                    f"raw clock {canonical} {how} outside "
                    "repro.obs.clock; use repro.obs.clock.now_s/monotonic_s "
                    "so tests can control time",
                )
            )
        return findings
