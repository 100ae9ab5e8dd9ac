"""Algorithm 1: the EDA-driven CSAT preprocessing framework.

Given an input circuit the preprocessor

1. normalises it (it is already an AIG in this library; the paper's
   ``aigmap`` step corresponds to the optional initial recipe);
2. chooses a logic-synthesis recipe — either by rolling out a trained (or
   random) agent step by step, or from an explicitly supplied recipe;
3. applies cost-customised LUT mapping with the branching-complexity cost;
4. converts the LUT netlist into a simplified CNF.

The result carries the intermediate artefacts (final AIG, LUT netlist, CNF)
plus the wall-clock preprocessing time, which the evaluation adds to the
solving time exactly as the paper does for its "overall runtime".
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.aig.aig import AIG
from repro.cnf.cnf import Cnf
from repro.cnf.lut2cnf import lut_netlist_to_cnf
from repro.mapping.cost import area_cost, branching_cost
from repro.mapping.lut import LutNetlist
from repro.mapping.mapper import map_aig
from repro.obs import get_tracer
from repro.synthesis.recipe import apply_recipe, initial_recipe

if TYPE_CHECKING:
    from repro.features.deepgate import DeepGateEmbedder

logger = logging.getLogger(__name__)


@dataclass
class PreprocessResult:
    """Artefacts and timing of one preprocessing run."""

    cnf: Cnf
    final_aig: AIG
    netlist: LutNetlist
    recipe: list[str]
    preprocess_time: float
    mapping_cost: float

    def pi_assignment(self, model: dict[int, bool]) -> list[bool]:
        """Map a solver model back to primary-input values of the circuit.

        The LUT-to-CNF encoder keys ``cnf.var_map`` by *netlist node id*
        (0-based), not by AIG variable, and synthesis operations preserve PI
        order — this helper hides both facts.  The returned list is indexed
        by PI position and valid for the original input AIG as well as
        :attr:`final_aig` (e.g. a SAT model of a miter becomes the
        counterexample input pattern).
        """
        values = []
        for node_id in self.netlist.pis:
            cnf_var = self.cnf.var_map.get(node_id)
            values.append(bool(model[cnf_var]) if cnf_var is not None
                          else False)
        return values


@dataclass
class Preprocessor:
    """Configurable implementation of Algorithm 1.

    ``sweep`` runs SAT sweeping (:func:`repro.aig.sweep.sweep_aig`) after
    the synthesis recipe and before LUT mapping: functionally equivalent
    internal nodes are merged under incremental SAT proofs, which collapses
    LEC-style instances where large parts of the circuit are provably
    equivalent before the final solver ever runs.  ``sweep_kwargs`` tunes
    the engine (``num_patterns``, ``conflict_budget``, ...).
    """

    lut_size: int = 4
    use_branching_cost: bool = True
    max_steps: int = 10
    apply_initial_recipe: bool = False
    agent: object | None = None
    recipe: list[str] | None = None
    sweep: bool = False
    sweep_kwargs: dict | None = None
    #: The agent's graph embedder, built on the first agent-driven run.
    embedder: DeepGateEmbedder | None = None

    def preprocess(self, aig: AIG) -> PreprocessResult:
        """Run the full preprocessing pipeline on ``aig``."""
        start = time.perf_counter()
        tracer = get_tracer()
        with tracer.span("recipe") as span:
            recipe = self._choose_recipe(aig)
            transformed = aig
            if self.apply_initial_recipe:
                transformed = apply_recipe(transformed, initial_recipe())
            transformed = apply_recipe(transformed, recipe)
            span.set(steps=len(recipe), nodes=transformed.num_ands)
        logger.debug("recipe %s: %d AND nodes", recipe, transformed.num_ands)
        if self.sweep:
            from repro.aig.sweep import sweep_aig

            # sweep_aig opens its own "sweep" span.
            transformed = sweep_aig(transformed,
                                    **(self.sweep_kwargs or {})).aig
        cost_fn = branching_cost if self.use_branching_cost else area_cost
        with tracer.span("map", lut_size=self.lut_size) as span:
            mapping = map_aig(transformed, k=self.lut_size, cost_fn=cost_fn)
            span.set(luts=mapping.netlist.num_luts,
                     cost=mapping.total_cost)
        with tracer.span("encode") as span:
            cnf = lut_netlist_to_cnf(mapping.netlist)
            span.set(num_vars=cnf.num_vars, num_clauses=cnf.num_clauses)
        elapsed = time.perf_counter() - start
        logger.debug("preprocess done in %.3f s: %d vars, %d clauses",
                     elapsed, cnf.num_vars, cnf.num_clauses)
        return PreprocessResult(
            cnf=cnf,
            final_aig=transformed,
            netlist=mapping.netlist,
            recipe=recipe,
            preprocess_time=elapsed,
            mapping_cost=mapping.total_cost,
        )

    def _choose_recipe(self, aig: AIG) -> list[str]:
        """Determine the synthesis recipe: explicit, agent-driven or default."""
        if self.recipe is not None:
            return list(self.recipe)
        if self.agent is not None:
            from repro.features.deepgate import DeepGateEmbedder
            from repro.rl.env import SynthesisEnv
            from repro.rl.train import agent_recipe

            if self.embedder is None:
                self.embedder = DeepGateEmbedder(dim=64)
            env = SynthesisEnv(max_steps=self.max_steps, lut_size=self.lut_size,
                               embedder=self.embedder)
            return agent_recipe(self.agent, env, aig, max_steps=self.max_steps)
        # Default recipe when neither an agent nor an explicit recipe is
        # given: a strong fixed sequence within the same action space.
        return ["balance", "rewrite", "refactor", "rewrite", "resub", "balance"]
