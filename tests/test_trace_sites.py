"""The benchmark's tracer (perfbench/layers.py) rebinds the names through
which one normgraph module calls another.  This checks that every name it
rebinds still exists and is still called through that name, and that
uninstalling restores each one."""

import importlib.util
import sys
from pathlib import Path

from normgraph import cli, ff, general, graph, k46, parallel

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_layer_and_restores_it(monkeypatch, capsys, tmp_path):
    layers = load_layers(monkeypatch)
    tracer = layers.Tracer(
        {"cli": cli, "ff": ff, "general": general, "graph": graph, "k46": k46,
         "parallel": parallel}
    )
    tracer.install()
    saved = list(tracer._saved)
    try:
        for owner, attr, orig in saved:
            assert getattr(owner, attr) is not orig, f"{attr} was not rebound"
        assert cli.main(["witness46"]) == 0
        assert cli.main(["census", "--p", "3", "--t", "3", "--k", "2"]) == 0
        assert cli.main(
            ["census", "--p", "3", "--t", "3", "--k", "1", "--sample", "--trials", "50"]
        ) == 0
        edges = tmp_path / "edges.txt"
        assert cli.main(["export", "--p", "3", "--t", "3", "--output", str(edges)]) == 0
    finally:
        tracer.uninstall()
    assert "result: PASS" in capsys.readouterr().out
    names = {span[0] for span in tracer.rep.spans}
    assert names >= {
        "k46.certify", "k46.verdict", "k46.splitting", "k46.residue",
        "polys.roots_in_base", "k46.build", "graph.make", "k46.verify_witness",
        "graph.biclique", "ff.norm", "graph.census", "graph.scan", "graph.export",
    }
    assert sum(span[0] == "graph.census" for span in tracer.rep.spans) == 2
    for owner, attr, orig in saved:
        assert getattr(owner, attr) is orig, f"{attr} was not restored"
