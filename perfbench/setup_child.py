"""Fill one workload's caches in a fresh process, then print "ready".

    python3 perfbench/setup_child.py <workload>

run.py starts this with PYTHONPATH pointing at the checkout's src/ and
times it from process start to the "ready" line: that interval is one
sample of setup_s.  Only the standard library and nodaltrade are imported,
so the interval holds no benchmark code beyond this file.
"""

from __future__ import annotations

import sys

CELLS = tuple((flavor, k) for flavor in ("orthogonal", "symplectic") for k in (1, 2, 3))


def fill_caches(workload: str) -> None:
    """The set-up a user of the workload pays before the first operation.

    Imports, pairing enumeration, the loop-type table and the spectral
    projection data, the form and diagonal tensors, and the count table.
    Only public functions are called, so the caches fill the way a caller
    fills them.
    """
    if workload == "trade_n3":
        from nodaltrade import loop_matrix, node_trade, pairings, tensor_oracle  # noqa: F401

        pairings.enumerate_pairings(3)
        for flavor, k in CELLS:
            space = tensor_oracle.BilinearSpace(flavor, k)
            tensor_oracle.all_form_tensors(3, space)
            tensor_oracle.all_diagonal_multivectors(3, space)
        loop_matrix.decompose_isotypic(loop_matrix.PairingVector.zero(3))
    elif workload == "spectral_n4":
        from nodaltrade import loop_matrix, pairings

        pairings.enumerate_pairings(4)
        loop_matrix.decompose_isotypic(loop_matrix.PairingVector.zero(4))
    elif workload == "appendix":
        from nodaltrade import case_study, cohomology, plane_counts  # noqa: F401

        plane_counts.bundled_table()
        for model in ("p2", "p1", "elliptic"):
            cohomology.load_model(model)
    else:
        raise ValueError(f"no in-process set-up for {workload!r}")


if __name__ == "__main__":
    fill_caches(sys.argv[1])
    print("ready", flush=True)
