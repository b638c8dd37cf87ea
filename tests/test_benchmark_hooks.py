"""The benchmark's tracer (`perfbench/spans.py`) wraps names of the package
by attribute; a name it wraps that the package no longer has would only
show in a traced benchmark run, so this test installs it here."""

import importlib
from pathlib import Path

import flipflow
from flipflow import cli, constant, make_rule

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_the_tracer_wraps_every_hook_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("spans").Tracer()
    try:
        tracer.install(flipflow, cli)
        patches = list(tracer._patches)
        assert patches
        for owner, attr, orig in patches:
            assert getattr(owner, attr) is not orig
        flipflow.velocity(make_rule("er"), constant(0.5))
        assert [span[0] for span in tracer.spans] == ["velocity.velocity"]
    finally:
        tracer.uninstall()
    for owner, attr, orig in patches:
        assert getattr(owner, attr) is orig
