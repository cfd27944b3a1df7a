"""The benchmark tracer's bindings against the package as it stands.

`bench/layers.py` wraps spdelab functions by name.  A renamed or deleted
function would otherwise only show when a traced benchmark run starts;
here building the bindings, swapping them in and restoring them runs on
every test run.  So does a small traced `spdelab jn`: its consumer
declares the rows it reads in a function attribute, which the tracer's
wrapper must carry, or the traced run would keep every path's history.
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


def test_traced_jn_writes_the_same_files_and_keeps_only_path_zero(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    layers = importlib.import_module("layers")
    m, modules = run.load_spdelab()
    cfg = tmp_path / "jn.cfg"
    cfg.write_text("[grid]\nnpts = 32\n\n[montecarlo]\npaths = 8\n")

    def jn(out):
        assert m.cli.main(["--config", str(cfg), "--out", str(out), "jn"]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}

    plain = jn(tmp_path / "plain")
    tracer = layers.Tracer()
    with layers.installed(tracer, modules):
        traced = jn(tmp_path / "traced")
    assert len(plain) == 4 and traced == plain
    # path 0 alone: 129 snapshots of 32 nodes; the 8-path ensemble keeps none
    steps = 32 * 32 // 8
    assert tracer.counts["solver.history_bytes"] == (steps + 1) * 32 * 8
    assert tracer.counts["solver.node_steps"] == (1 + 8) * steps * 32
