"""The dataflow IR: origin resolution, scoping, and module globals."""

import ast

from repro.analysis.dataflow import FunctionDataflow, module_global_assigns
from repro.analysis.names import import_bindings


def flow_of(text: str, name: str | None = None) -> FunctionDataflow:
    tree = ast.parse(text)
    bindings = import_bindings(tree)
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    func = funcs[name] if name else next(iter(funcs.values()))
    return FunctionDataflow(func, bindings)


def origins_of(text: str, var: str, name: str | None = None):
    flow = flow_of(text, name)
    return flow.origins(ast.parse(var, mode="eval").body)


def kinds(origins):
    return sorted({o.kind for o in origins})


class TestOriginResolution:
    def test_param_and_constant(self):
        text = "def f(seed):\n    x = seed\n    y = 3\n"
        assert kinds(origins_of(text, "x")) == ["param"]
        assert kinds(origins_of(text, "y")) == ["const"]

    def test_arithmetic_and_tuple_packing_preserve_lineage(self):
        text = (
            "def f(walk_seed, step):\n"
            "    base = walk_seed + 1000\n"
            "    packed = (base, step, 1)\n"
        )
        origins = origins_of(text, "packed")
        details = {o.detail for o in origins if o.kind == "param"}
        assert details == {"walk_seed", "step"}

    def test_tuple_unpacking_pairs_elementwise(self):
        text = "def f(a, b):\n    x, y = a, b\n"
        assert {o.detail for o in origins_of(text, "x")} == {"a"}
        assert {o.detail for o in origins_of(text, "y")} == {"b"}

    def test_attribute_chains_extend_param_detail(self):
        text = "def f(job):\n    s = job.fault_plan.seed\n"
        (origin,) = origins_of(text, "s")
        assert origin.kind == "attribute"
        assert origin.detail == "job.fault_plan.seed"

    def test_defaults_fold_into_param_origins(self):
        text = "def f(tags=[]):\n    x = tags\n"
        assert kinds(origins_of(text, "x")) == ["container", "param"]

    def test_lambda_and_local_function(self):
        text = (
            "def f():\n"
            "    cb = lambda v: v\n"
            "    def helper():\n"
            "        pass\n"
            "    g = helper\n"
        )
        assert kinds(origins_of(text, "cb")) == ["lambda"]
        assert kinds(origins_of(text, "g")) == ["function"]

    def test_passthrough_builtins_keep_lineage(self):
        text = "def f(seed):\n    x = int(abs(seed))\n"
        (origin,) = origins_of(text, "x")
        assert origin.kind == "param" and origin.detail == "seed"

    def test_opaque_call_is_a_call_origin(self):
        text = "import os\ndef f():\n    x = os.getpid()\n"
        (origin,) = origins_of(text, "x")
        assert origin.kind == "call" and origin.detail == "os.getpid"

    def test_import_bindings_canonicalize_attribute_roots(self):
        text = "import numpy as np\ndef f():\n    x = np.pi\n"
        (origin,) = origins_of(text, "x")
        assert origin.kind == "import" and origin.detail == "numpy.pi"

    def test_self_reassignment_terminates(self):
        text = "def f(n):\n    x = 0\n    x = x + n\n"
        assert kinds(origins_of(text, "x")) == ["const", "param"]

    def test_nested_function_assignments_stay_scoped(self):
        text = (
            "def outer(seed):\n"
            "    def inner():\n"
            "        shadow = 42\n"
            "    shadow = seed\n"
        )
        flow = flow_of(text, "outer")
        origins = flow.origins(ast.parse("shadow", mode="eval").body)
        assert kinds(origins) == ["param"]

    def test_nested_scopes_bind_no_enclosing_names(self):
        text = (
            "def outer(seed, seeds):\n"
            "    def inner():\n"
            "        picked = [x for x in seeds]\n"
            "        if (y := seeds):\n"
            "            pass\n"
            "    grab = lambda: [z for z in seeds]\n"
            "    x = y = z = seed\n"
        )
        for var in ("x", "y", "z"):
            assert {o.detail for o in origins_of(text, var)} == {"seed"}, var

    def test_walrus_in_a_nested_block_binds_once(self):
        text = (
            "def f(seed):\n"
            "    if seed:\n"
            "        for _ in range(2):\n"
            "            if (x := seed):\n"
            "                pass\n"
        )
        assert len(flow_of(text).assignments["x"]) == 1
        assert {o.detail for o in origins_of(text, "x")} == {"seed"}

    def test_for_loop_and_enumerate_targets(self):
        text = (
            "def f(seeds):\n"
            "    for s in seeds:\n"
            "        pass\n"
            "    for i, s2 in enumerate(seeds):\n"
            "        pass\n"
        )
        assert {o.detail for o in origins_of(text, "s")} == {"seeds"}
        assert {o.detail for o in origins_of(text, "s2")} == {"seeds"}

    def test_comprehension_targets_bind_to_iterable(self):
        text = "def f(jobs):\n    picked = [j for j in jobs]\n"
        origins = origins_of(text, "picked")
        assert "container" in kinds(origins)
        assert {o.detail for o in origins if o.kind == "param"} == {"jobs"}


class TestModuleViews:
    def test_module_global_assigns(self):
        tree = ast.parse("A = 1\nB: int = 2\nc, d = 3, 4\n")
        names = [n for names, _ in module_global_assigns(tree) for n in names]
        assert names == ["A", "B"]
