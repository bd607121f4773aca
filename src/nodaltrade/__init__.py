"""Exact-arithmetic engine for trading primitive insertions against nodes.

Submodules:
  errors         the exception types shared across the package
  frozen         the slotted immutable base of the value classes
  rationals      the integer and rational argument gates, parsing, formatting,
                 one common denominator
  partitions     partitions, hook dimensions, content products
  pairings       n-pairings, crossings, loop numbers, group action
  linalg         exact rational elimination, ranks, kernels
  loop_matrix    the matrix x^L(P,P'), eigenblocks, restricted inverses
  tensor_oracle  brute-force invariant tensors on model spaces
  node_trade     recovery of invariant tensors from diagonal contractions
  cohomology     finite cohomology models, diagonal splitting, divisor rule
  stable_graphs  decorated graphs, splitting enumeration, degeneration sums
  plane_counts   rational plane-curve counts and the bundled count table
  case_study     the worked cubic-degeneration example, both routes
  cli            single command-line entry point
"""

import os

__version__ = "0.1.0"


def read_bundled(name: str):
    """The parsed JSON of data/<name>, read as a plain file beside this package."""
    import json  # here, so that importing a submodule does not load json
    with open(os.path.join(os.path.dirname(__file__), "data", name), encoding="utf-8") as fh:
        return json.load(fh)
