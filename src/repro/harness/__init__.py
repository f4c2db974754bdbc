"""Benchmark harness: §7.1 load rigs, one experiment module per paper
figure, and plain-text reporting.  ``python -m repro.harness --all``
regenerates the full evaluation.

The figure-side names (``FIGURES``, ``run_geo``, ``visibility_p``,
``FigureResult``, ``format_table``) resolve on first access (PEP 562), so
importing a submodule such as ``repro.harness.goldens`` or ``.loadgen``
does not import fig1…fig7.
"""

from importlib import import_module

from .loadgen import (
    PartitionEmulator,
    RemoteSink,
    SequencerLoadClient,
    ServiceRig,
    build_eunomia_rig,
    build_sequencer_rig,
)

_LAZY = {
    "FIGURES": ".figures",
    "run_geo": ".experiment",
    "visibility_p": ".experiment",
    "FigureResult": ".report",
    "format_table": ".report",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value     # resolve once; later reads skip this hook
    return value


__all__ = [
    "FIGURES",
    "FigureResult",
    "format_table",
    "run_geo",
    "visibility_p",
    "PartitionEmulator",
    "SequencerLoadClient",
    "RemoteSink",
    "ServiceRig",
    "build_eunomia_rig",
    "build_sequencer_rig",
]
