"""Span arithmetic, wrapper installation and worker merging."""

import importlib
import multiprocessing
import sys
import textwrap

import pytest

import layers
from layers import Layer, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_call_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    # a [0, 10] > b [1, 4] > c [2, 3];  a > c [5, 8]
    tracer.enter("a")
    clock.now = 1
    tracer.enter("b")
    clock.now = 2
    tracer.enter("c")
    clock.now = 3
    tracer.exit()
    clock.now = 4
    tracer.exit()
    clock.now = 5
    with tracer.span("c"):
        clock.now = 8
    clock.now = 10
    tracer.exit()

    assert tracer.self_s == {"a": 4.0, "b": 2.0, "c": 4.0}
    assert tracer.calls == {"a": 1, "b": 1, "c": 2}
    assert sum(tracer.self_s.values()) == 10.0
    by_id = {span[0]: span for span in tracer.spans}
    (root,) = [span for span in tracer.spans if span[4] is None]
    assert root[1:4] == ("a", 0, 10)
    inner_c = [s for s in tracer.spans if s[1] == "c" and s[2] == 2][0]
    assert by_id[inner_c[4]][1] == "b"


def test_directly_nested_same_layer_is_one_call():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("value"):
        clock.now = 1
        with tracer.span("value"):
            clock.now = 3
        clock.now = 4
    assert tracer.calls == {"value": 1}
    assert tracer.self_s == {"value": 4.0}


SYNTH = {
    "__init__.py": "",
    "core.py": """
        def leaf(x):
            return x + 1

        class Box:
            def method(self, x):
                return leaf(x) * 2

            @staticmethod
            def static(x):
                return x - 1
    """,
    "user.py": """
        from .core import leaf

        def call(x):
            return leaf(x)
    """,
}


@pytest.fixture
def synthpkg(tmp_path, monkeypatch):
    package = tmp_path / "synthpkg"
    package.mkdir()
    for name, text in SYNTH.items():
        (package / name).write_text(textwrap.dedent(text))
    monkeypatch.syspath_prepend(str(tmp_path))
    yield importlib.import_module("synthpkg.user"), importlib.import_module(
        "synthpkg.core"
    )
    for name in [n for n in sys.modules if n.startswith("synthpkg")]:
        del sys.modules[name]


def test_by_name_import_site_is_rebound_and_restored(synthpkg):
    user, core = synthpkg
    leaf, method, static = core.leaf, core.Box.method, core.Box.__dict__["static"]
    tracer = Tracer()
    specs = (
        Layer("leaf", "synthpkg.core:leaf"),
        Layer("box", "synthpkg.core:Box.method"),
        Layer("static", "synthpkg.core:Box.static"),
    )
    with layers.installed(tracer, specs, package="synthpkg"):
        assert user.leaf is not leaf and user.leaf.__wrapped__ is leaf
        assert user.call(1) == 2
        assert core.Box().method(1) == 4
        assert core.Box.static(1) == 0
    assert tracer.calls == {"leaf": 2, "box": 1, "static": 1}
    assert user.leaf is leaf and core.leaf is leaf
    assert core.Box.method is method
    assert core.Box.__dict__["static"] is static


def test_repro_layers_rebind_every_import_site_and_restore():
    sites = [
        ("repro.core.baselines", "build_multiplier"),
        ("repro.experiments.context", "build_multiplier"),
        ("repro.core.architecture", "build_multiplier"),
        ("repro.timing.fold", "fold_stimulus"),
        ("repro.aging.degradation", "fold_stimulus"),
        ("repro.timing.replay", "build_value_plane"),
        ("repro.timing.value_cache", "build_value_plane"),
        ("repro.timing.delta", "build_value_plane"),
    ]
    modules = {name: importlib.import_module(name) for name, _ in sites}
    originals = {site: getattr(modules[site[0]], site[1]) for site in sites}
    engine = importlib.import_module("repro.timing.engine")
    run = engine.CompiledCircuit.__dict__["run"]
    with layers.installed(Tracer()):
        for (module, attr), original in originals.items():
            wrapped = getattr(modules[module], attr)
            assert wrapped is not original, (module, attr)
            assert wrapped.__wrapped__ is original
        assert engine.CompiledCircuit.__dict__["run"] is not run
    for (module, attr), original in originals.items():
        assert getattr(modules[module], attr) is original
    assert engine.CompiledCircuit.__dict__["run"] is run


def _child_work(tracer):
    with tracer.span("child.layer"):
        tracer.count("child.counter", 2)


def test_forked_child_totals_are_merged(tmp_path):
    tracer = Tracer(worker_dir=str(tmp_path))
    with tracer.span("parent.layer"):
        pass
    context = multiprocessing.get_context("fork")
    child = context.Process(target=_child_work, args=(tracer,))
    child.start()
    child.join(30)
    assert child.exitcode == 0
    assert tracer.merge_workers() == 1
    assert tracer.calls == {"parent.layer": 1, "child.layer": 1}
    assert tracer.counters == {"child.counter": 2}
    assert list(tmp_path.iterdir()) == []
