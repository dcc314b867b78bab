"""UNIT001: physical quantities carry their unit in the name.

The paper mixes meters (map geometry), degrees (headings), dBm (radio
power), and seconds (sensor cadence), and the repo's convention is that
any parameter holding one of them says so: ``spacing_m``, ``radius_m``,
``heading_deg``, ``rssi_dbm``, ``interval_s``.  A bare ``radius`` in a
fingerprint query is exactly how a meters-vs-grid-cells bug enters the
codebase without a type error.  The rule watches the geometry/world/
radio-adjacent modules, where every bare quantity is a latent unit bug.
"""

from __future__ import annotations

import ast
from dataclasses import replace

from repro.analysis.engine import Finding, Rule, SourceFile

#: Path fragments of the modules where physical units live.
_UNIT_MODULES = (
    "repro/geometry/",
    "repro/world/",
    "repro/radio/",
    "repro/sensors/",
    "repro/core/",
)

#: Modules where UNIT001 findings are promoted to the error tier: the
#: filter/sensor layer is where a unitless ``dt`` or ``accuracy``
#: actually corrupts physics (a seconds-vs-milliseconds slip in the
#: Kalman transition is silent), so there the convention gates the build.
_ERROR_MODULES = (
    "repro/core/",
    "repro/sensors/",
)

#: Accepted unit suffixes (the paper's quantities and simple derivates).
UNIT_SUFFIXES = (
    "_m",
    "_m2",
    "_mps",
    "_deg",
    "_rad",
    "_dbm",
    "_db",
    "_s",
    "_ms",
    "_ns",
    "_hz",
)

#: Bare physical-quantity parameter names -> the suggested suffixed name.
_QUANTITIES = {
    "spacing": "spacing_m",
    "radius": "radius_m",
    "accuracy": "accuracy_m",
    "distance": "distance_m",
    "altitude": "altitude_m",
    "elevation": "elevation_m",
    "wavelength": "wavelength_m",
    "speed": "speed_mps",
    "velocity": "velocity_mps",
    "bearing": "bearing_deg",
    "heading": "heading_deg",
    "azimuth": "azimuth_deg",
    "rssi": "rssi_dbm",
    "power": "power_dbm",
    "duration": "duration_s",
    "dt": "dt_s",
    "interval": "interval_s",
    "timeout": "timeout_s",
    "latency": "latency_ms",
    "frequency": "frequency_hz",
}


def _is_numeric(annotation: ast.expr | None, default: ast.expr | None) -> bool:
    """Return True when a parameter is evidently a number.

    Either the annotation mentions ``float``/``int`` (including inside
    ``float | None`` unions) or the default is a numeric literal.
    """
    if annotation is not None:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Name) and node.id in ("float", "int"):
                return True
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and ("float" in node.value or "int" in node.value)
            ):
                return True
    if default is not None:
        value = default
        if isinstance(value, ast.UnaryOp):
            value = value.operand
        if isinstance(value, ast.Constant) and isinstance(
            value.value, (int, float)
        ) and not isinstance(value.value, bool):
            return True
    return False


class UnitSuffixConvention(Rule):
    """UNIT001: numeric quantity parameters name their unit.

    In the geometry/world/radio/sensors/core modules, a numeric
    parameter whose name is a bare physical quantity (``spacing``,
    ``radius``, ``heading``, ``dt``, ...) is flagged with the
    conventional suffixed spelling.  Warn tier by default: naming is a
    convention, not a correctness proof — but the fix is a rename, so
    there is little excuse.  In ``repro/core/`` and ``repro/sensors/``
    (see ``_ERROR_MODULES``) the finding is promoted to the error tier
    and gates the build.
    """

    id = "UNIT001"
    tier = "warn"
    title = "missing unit suffix on physical quantity"

    def check(self, file: SourceFile) -> list[Finding]:
        if not file.in_src or not any(
            fragment in file.display for fragment in _UNIT_MODULES
        ):
            return []
        findings: list[Finding] = []
        for node in file.nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(self._check_signature(file, node))
            elif isinstance(node, ast.ClassDef):
                findings.extend(self._check_fields(file, node))
        return findings

    def _check_fields(self, file: SourceFile, node: ast.ClassDef) -> list[Finding]:
        """Flag bare-quantity annotated class fields (dataclass style).

        A dataclass field is a constructor parameter in disguise — a
        ``dt: float`` on a filter config leaks into every call site —
        so fields follow the same suffix convention as signatures.
        """
        findings: list[Finding] = []
        for statement in node.body:
            if not isinstance(statement, ast.AnnAssign):
                continue
            target = statement.target
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            if name.endswith(UNIT_SUFFIXES):
                continue
            suggested = _QUANTITIES.get(name)
            if suggested is None:
                continue
            if not _is_numeric(statement.annotation, statement.value):
                continue
            findings.append(
                self._tiered(
                    file,
                    target,
                    f"field {name!r} of {node.name} is a physical "
                    f"quantity without a unit suffix; rename to "
                    f"{suggested!r}",
                )
            )
        return findings

    def _tiered(self, file: SourceFile, node: ast.AST, message: str) -> Finding:
        """Build a finding, promoted to error tier in ``_ERROR_MODULES``."""
        found = self.finding(file, node, message)
        if any(fragment in file.display for fragment in _ERROR_MODULES):
            found = replace(found, tier="error")
        return found

    def _check_signature(
        self, file: SourceFile, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> list[Finding]:
        arguments = node.args
        positional = arguments.posonlyargs + arguments.args
        defaults: list[ast.expr | None] = [None] * (
            len(positional) - len(arguments.defaults)
        ) + list(arguments.defaults)
        pairs = list(zip(positional, defaults)) + list(
            zip(arguments.kwonlyargs, arguments.kw_defaults)
        )
        findings: list[Finding] = []
        for argument, default in pairs:
            name = argument.arg
            if name in ("self", "cls"):
                continue
            if name.endswith(UNIT_SUFFIXES):
                continue
            suggested = _QUANTITIES.get(name)
            if suggested is None:
                continue
            if not _is_numeric(argument.annotation, default):
                continue
            findings.append(
                self._tiered(
                    file,
                    argument,
                    f"parameter {name!r} of {node.name}() is a physical "
                    f"quantity without a unit suffix; rename to "
                    f"{suggested!r}",
                )
            )
        return findings
