"""The paper's contribution assembled: the CSAT preprocessing framework.

:class:`repro.core.preprocess.Preprocessor` implements Algorithm 1 — an
RL-guided synthesis recipe followed by cost-customised LUT mapping and
LUT-to-CNF conversion.  :mod:`repro.core.pipeline` wraps it, together with
the Baseline (direct Tseitin) and Comp. (size-oriented circuit preprocessing,
the Eén–Mishchenko–Sörensson 2007 substitute) pipelines, into end-to-end
"preprocess + solve" runs used by the evaluation harnesses.
"""

from repro.core.preprocess import PreprocessResult, Preprocessor
from repro.core.results import InstanceRun, RunSet
from repro.core.pipeline import (
    PIPELINES,
    baseline_pipeline,
    comp_pipeline,
    ours_pipeline,
    run_pipeline,
)

__all__ = [
    "Preprocessor",
    "PreprocessResult",
    "InstanceRun",
    "RunSet",
    "PIPELINES",
    "baseline_pipeline",
    "comp_pipeline",
    "ours_pipeline",
    "run_pipeline",
]
