"""A DeepGate2-substitute circuit embedding.

The paper feeds the RL agent the primary-output embeddings of the *initial*
netlist produced by a pre-trained DeepGate2 model, which captures both
structural and functional properties of the instance.  No pre-trained GNN is
available offline, so this module provides a deterministic embedding built
from the same two ingredients DeepGate2 learns from:

* **functional signatures** — random-simulation signatures of every node
  (the estimated probability of each node evaluating to 1, and pairwise
  diversity of signatures inside each PO cone);
* **structural statistics** — logic-level histograms, fanout histograms and
  global size/depth descriptors of each PO cone.

The embedding is a fixed-length vector, is deterministic for a given seed and
varies smoothly with circuit structure, so it plays the same role in the RL
state (Eq. 2) as the original learned embedding.  The substitution is
recorded in README.md.
"""

from __future__ import annotations

import numpy as np

from repro.aig.aig import AIG, lit_var
from repro.aig.simulate import random_pi_rows, simulate_rows
from repro.aig.stats import balance_ratio


class DeepGateEmbedder:
    """Produce fixed-length structural/functional embeddings of AIGs."""

    def __init__(self, dim: int = 64, num_patterns: int = 256, seed: int = 0) -> None:
        if dim < 16:
            raise ValueError("embedding dimension must be at least 16")
        self.dim = dim
        self.num_patterns = num_patterns
        self.seed = seed
        # A fixed random projection makes the final embedding dimension
        # independent of the raw descriptor length, mimicking the role of the
        # learned readout layer.
        self._rng = np.random.default_rng(seed)
        self._projection: np.ndarray | None = None

    def embed(self, aig: AIG) -> np.ndarray:
        """Return the embedding ``D(G)`` of ``aig`` as a ``dim``-vector."""
        descriptor = self._raw_descriptor(aig)
        projection = self._get_projection(descriptor.shape[0])
        embedded = projection @ descriptor
        norm = np.linalg.norm(embedded)
        if norm > 0:
            embedded = embedded / norm
        return embedded.astype(np.float64)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _get_projection(self, raw_dim: int) -> np.ndarray:
        if self._projection is None or self._projection.shape[1] != raw_dim:
            rng = np.random.default_rng(self.seed + 1)
            self._projection = rng.standard_normal((self.dim, raw_dim)) / np.sqrt(raw_dim)
        return self._projection

    def _raw_descriptor(self, aig: AIG) -> np.ndarray:
        """Build the raw structural/functional descriptor vector."""
        num_bins = 16
        if aig.num_pis == 0 or aig.num_ands == 0:
            return np.zeros(3 * num_bins + 8, dtype=np.float64)

        total_bits = 64 * max(1, (self.num_patterns + 63) // 64)
        full = (1 << total_bits) - 1
        values = simulate_rows(
            aig, random_pi_rows(aig.num_pis, self.num_patterns, self.seed), full)

        # Functional part: distribution of node signal probabilities.
        and_probabilities = np.array(
            [values[var].bit_count() for var in aig.and_vars()],
            dtype=np.float64) / total_bits
        prob_hist, _ = np.histogram(and_probabilities, bins=num_bins, range=(0.0, 1.0))
        prob_hist = prob_hist / max(1, and_probabilities.shape[0])

        # Output signal probabilities (the PO-centric part of DeepGate2).
        po_ones = np.array([(values[po >> 1] ^ (full if po & 1 else 0)).bit_count()
                            for po in aig.pos], dtype=np.float64)
        po_probabilities = po_ones / total_bits
        po_hist, _ = np.histogram(po_probabilities, bins=num_bins, range=(0.0, 1.0))
        po_hist = po_hist / max(1, po_probabilities.shape[0])

        # Structural part: normalised level histogram.
        levels = aig.levels()
        depth = max(1, aig.depth())
        and_levels = np.array([levels[var] for var in aig.and_vars()],
                              dtype=np.float64) / depth
        level_hist, _ = np.histogram(and_levels, bins=num_bins, range=(0.0, 1.0))
        level_hist = level_hist / max(1, and_levels.shape[0])

        # Global descriptors.
        fanouts = np.array(aig.fanout_counts(), dtype=np.float64)
        global_part = np.array([
            np.log1p(aig.num_ands),
            np.log1p(aig.num_pis),
            np.log1p(aig.num_pos),
            np.log1p(aig.depth()),
            balance_ratio(aig),
            float(np.mean(po_probabilities)),
            float(np.std(po_probabilities)),
            float(np.mean(fanouts[1:])) if fanouts.shape[0] > 1 else 0.0,
        ], dtype=np.float64)

        return np.concatenate([prob_hist, po_hist, level_hist, global_part])


def po_cone_sizes(aig: AIG) -> list[int]:
    """Return the transitive-fanin cone size of every primary output.

    Exposed as a small utility for analyses and tests; DeepGate2 also works
    per-PO cone, and the cone size is the cheapest per-PO structural
    statistic.
    """
    sizes = []
    for po in aig.pos:
        cone = aig.transitive_fanin_cone([lit_var(po)])
        sizes.append(len([var for var in cone if aig.is_and(var)]))
    return sizes
