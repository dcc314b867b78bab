"""Known-bad fixture for PUR101 (linted as if under src/repro/)."""


def lambda_through_local(jobs):
    from repro.fleet import run_walks

    callback = lambda name: None  # noqa: E731 - the smuggled closure
    return run_walks(jobs, callback=callback)


def local_function_escape(jobs):
    from repro.fleet import iter_walks

    def progress(name):
        return name

    return iter_walks(jobs, progress)


def mutable_field(plan_steps):
    from repro.fleet.executor import WalkJob

    faults = [step for step in plan_steps]
    return WalkJob(place_name="a", path_name="b", fault_plan=faults)


def mutable_default(tags=[]):  # noqa: B006 - the hazard under test
    from repro.fleet.executor import WalkJob

    return WalkJob(place_name="a", path_name="b", fault_plan=tags)
