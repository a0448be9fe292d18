"""The bench tracer's contract with the package: every attribute it wraps
exists, and restore puts each original back."""

import os

import mmseq

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_tracer_wraps_and_restores_every_traced_attribute(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import tracer

    modules = (mmseq.instance, mmseq.scenario, mmseq.greedy, mmseq.evaluator,
               mmseq.tabu, mmseq.exact, mmseq.assess)
    before = [dict(vars(m)) for m in modules]
    original = mmseq.exact.lshaped_solve
    t = tracer.Tracer()
    try:
        tracer.install(t, mmseq)   # AttributeError on a missing attribute
        assert mmseq.exact.lshaped_solve is not original
    finally:
        t.restore()
    for module, attrs in zip(modules, before):
        assert vars(module) == attrs, module.__name__
