import threading
import types

import pytest

from bench.trace import Boundary, BoundaryError, Span, Tracer, self_cpu_ns


def span(id, parent, thread, cpu_ns):
    return Span(id, parent, 1, "core.query", thread, cpu_ns=cpu_ns)


def test_self_time_subtracts_nested_children():
    own = self_cpu_ns([span(1, 0, 1, 100), span(2, 1, 1, 60), span(3, 2, 1, 25), span(4, 1, 1, 10)])
    assert own == {1: 30, 2: 35, 3: 25, 4: 10}


def test_children_on_other_threads_overlap_and_are_not_subtracted():
    # Two workers run at once under a parent that waits for them: each
    # has its own CPU clock, so the parent keeps all of its own time.
    own = self_cpu_ns([span(1, 0, 1, 20), span(2, 1, 2, 500), span(3, 1, 3, 400), span(4, 2, 2, 100)])
    assert own == {1: 20, 2: 400, 3: 400, 4: 100}


def burn(n=20000):
    return sum(i * i for i in range(n))


def fake_module():
    module = types.ModuleType("bench_fake_program")

    class Engine:
        def outer(self):
            burn()
            return self.inner() + self.inner()

        def inner(self):
            return burn()

        def stream(self):
            for _ in range(3):
                yield self.inner()

        def fan_out(self):
            threads = [threading.Thread(target=self.inner) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

    module.Engine = Engine
    return module


@pytest.fixture
def traced(monkeypatch):
    module = fake_module()
    monkeypatch.setitem(__import__("sys").modules, module.__name__, module)
    monkeypatch.setattr("bench.trace.LAYER_OF", {"t.outer": "t", "t.inner": "t", "t.stream": "t"})
    tracer = Tracer()
    boundaries = [
        Boundary("t.outer", ("bench_fake_program:Engine.outer", "bench_fake_program:Engine.fan_out"), root=True),
        Boundary("t.inner", ("bench_fake_program:Engine.inner",)),
        Boundary("t.stream", ("bench_fake_program:Engine.stream",)),
    ]
    originals = dict(vars(module.Engine))
    tracer.install(boundaries)
    tracer.enabled = True
    yield module.Engine(), tracer
    tracer.uninstall()
    assert {k: v for k, v in vars(module.Engine).items()} == originals
    assert threading.Thread.start.__name__ == "start"


def test_wrappers_link_parent_and_query(traced):
    engine, tracer = traced
    engine.outer()
    outer = [s for s in tracer.spans if s.name == "t.outer"]
    inner = [s for s in tracer.spans if s.name == "t.inner"]
    assert len(outer) == 1 and len(inner) == 2
    assert all(s.parent == outer[0].id and s.query == outer[0].id for s in inner)
    own = self_cpu_ns(tracer.spans)
    assert 0 < own[outer[0].id] < outer[0].cpu_ns


def test_generator_span_excludes_its_consumer(traced):
    engine, tracer = traced
    for _ in engine.stream():
        burn(200000)  # the consumer's work, between two items
    (stream,) = [s for s in tracer.spans if s.name == "t.stream"]
    inner = [s for s in tracer.spans if s.name == "t.inner"]
    assert [s.parent for s in inner] == [stream.id] * 3
    assert stream.wall_ns < (stream.end_ns - stream.start_ns) / 2
    assert stream.cpu_ns >= sum(s.cpu_ns for s in inner)


def test_threads_inherit_the_span_that_started_them(traced):
    engine, tracer = traced
    engine.fan_out()
    (root,) = [s for s in tracer.spans if s.name == "t.outer"]
    workers = [s for s in tracer.spans if s.name == "t.inner"]
    assert len(workers) == 2
    assert all(s.parent == root.id and s.query == root.id and s.thread != root.thread for s in workers)


def test_switched_off_the_wrappers_record_nothing(traced):
    engine, tracer = traced
    tracer.enabled = False
    engine.outer()
    assert tracer.spans == []


def test_unresolvable_boundary_fails_loudly():
    tracer = Tracer()
    with pytest.raises(BoundaryError):
        tracer.install([Boundary("x", ("repro.web.page:no_such_function",))])
    with pytest.raises(BoundaryError):
        tracer.install([Boundary("x", ("repro.no_such_module:f",))])
    assert threading.Thread.start.__name__ == "start"


def test_every_declared_boundary_resolves():
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
