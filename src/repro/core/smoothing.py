"""Temporal smoothing utilities for detectors and estimators.

Two small stateful helpers used as optional refinements:

* :class:`MajorityWindow` — IODetector's raw per-snapshot votes flicker
  around doorways; the original IODetector paper aggregates detections
  over a short window.  A sliding majority removes the flicker without
  adding latency beyond the window.
* :class:`ExponentialSmoother` — for scalar streams (e.g. predicted
  errors shown to a UI) where single-step spikes are noise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


@dataclass
class MajorityWindow:
    """Sliding-window majority vote over a boolean stream.

    Attributes:
        size: window length in samples; the decision is the majority of
            the last ``size`` inputs (ties resolve to the latest input).
    """

    size: int = 5
    _window: deque = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("window size must be positive")
        self._window = deque(maxlen=self.size)

    def update(self, value: bool) -> bool:
        """Feed one raw decision; return the smoothed decision."""
        self._window.append(bool(value))
        trues = sum(self._window)
        falses = len(self._window) - trues
        if trues == falses:
            return bool(value)
        return trues > falses

    def reset(self) -> None:
        """Clear the window (new walk)."""
        self._window.clear()


@dataclass
class ExponentialSmoother:
    """First-order exponential smoothing of a scalar stream.

    Attributes:
        alpha: weight of the newest sample in (0, 1]; 1 disables
            smoothing.
    """

    alpha: float = 0.3
    _state: float | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")

    def update(self, value: float) -> float:
        """Feed one sample; return the smoothed value."""
        if self._state is None:
            self._state = float(value)
        else:
            self._state += self.alpha * (float(value) - self._state)
        return self._state

    @property
    def value(self) -> float | None:
        """Return the current smoothed value (None before any sample)."""
        return self._state

    def reset(self) -> None:
        """Forget the state."""
        self._state = None


@dataclass
class SmoothedIODetector:
    """IODetector wrapped in a sliding majority window.

    Exposes the same ``is_indoor`` interface as
    :class:`~repro.core.iodetector.IODetector` so the framework can use
    either interchangeably.
    """

    window_size: int = 5

    def __post_init__(self) -> None:
        from repro.core.iodetector import IODetector

        self._detector = IODetector()
        self._window = MajorityWindow(self.window_size)

    def is_indoor(self, snapshot) -> bool:
        """Classify one snapshot with temporal smoothing."""
        return self._window.update(self._detector.is_indoor(snapshot))

    def reset(self) -> None:
        """Clear the smoothing window."""
        self._window.reset()
