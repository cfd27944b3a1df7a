"""The benchmark tracer's bindings against the package as it stands.

`bench/layers.py` wraps spdelab functions by name.  A renamed or deleted
function would otherwise only show when a traced benchmark run starts;
here building the bindings, swapping them in and restoring them runs on
every test run.
"""
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_swaps_every_binding_in_and_restores_it(monkeypatch):
    # run.py and layers.py import their siblings by plain module name
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    layers = importlib.import_module("layers")
    _, modules = run.load_spdelab()
    before = [dict(vars(m)) for m in modules]

    with layers.installed(layers.Tracer(), modules) as inst:
        bindings = inst.bindings
        assert bindings
        originals = {id(original) for _, _, original, _ in bindings}
        for mod, attr, original, wrapper in bindings:
            assert getattr(mod, attr) is wrapper is not original, (mod.__name__, attr)
        # no module global still holds a wrapped original
        for mod in modules:
            held = [k for k, v in vars(mod).items() if id(v) in originals]
            assert held == [], (mod.__name__, held)

    for mod, attr, original, _ in bindings:
        assert getattr(mod, attr) is original, (mod.__name__, attr)
    for mod, names in zip(modules, before):
        assert all(vars(mod)[k] is v for k, v in names.items()), mod.__name__
