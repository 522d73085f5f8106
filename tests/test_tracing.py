"""The benchmark tracer (bench/tracing.py) patches varcodes names by attribute.

Entering `installed` looks up every name it wraps, so a rename in the package
fails here, offline, instead of only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

from varcodes import cli, codes, gf

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_tracer_names_resolve_and_are_restored(capsys):
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = (cli.main, codes.min_distance, codes.LinearCode.from_dict, gf.GF.__init__)
    with tracing.installed(tracing.Tracer()) as tracer:
        assert cli.main(["bound", "griesmer", '{"n":10,"k":3,"q":2}']) == 0
    capsys.readouterr()
    assert tracer.summary()["spans.cli.main"] == 1
    assert tracer.summary()["spans.bounds.griesmer"] == 1
    assert (cli.main, codes.min_distance, codes.LinearCode.from_dict, gf.GF.__init__) == originals
