"""Known-bad fixture for PUR001 (linted as if under repro/fleet/)."""

import threading
from dataclasses import dataclass, field


@dataclass
class NotFrozenJob:
    name: str


@dataclass(frozen=True)
class ImpureFields:
    tags: list[str] = field(default_factory=list)
    callback: object = lambda: 0
    lock: object = threading.Lock()


def bad_dispatch(jobs):
    from repro.fleet import run_walks

    return run_walks(jobs, callback=lambda name: None)
