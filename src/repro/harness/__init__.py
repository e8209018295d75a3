"""Experiment harness: configs, caching, reports, per-figure sweeps.

Simulation state and execution live in :class:`repro.api.session.Session`;
this package holds the configuration/result plumbing and the paper
experiments that run on it.
"""

from repro.harness.config import DEFAULT_MEASURE, DEFAULT_WARMUP, SimConfig
from repro.harness.report import render_json, render_table, size_label

__all__ = [
    "DEFAULT_MEASURE",
    "DEFAULT_WARMUP",
    "SimConfig",
    "render_json",
    "render_table",
    "size_label",
]
