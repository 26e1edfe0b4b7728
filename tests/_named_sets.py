"""The named solve sets of ROADMAP's grounding note, at default arguments.

SWEEP is the sabotage harness's sweep (_sabotage.SWEEP), ITEM7 the M = 1
high levels at eps 28..58, and LARGE_EPS the large-eps table.  Run as a
script, it solves each distinct level of the three at default arguments
and prints one JSON record per solve: M, eps, k, repr(E), iterations,
converged and residual.  Diffing its output on two trees shows whether a
change moves any of these solves by a bit.  It exits with status 1 if a
level does not converge:

    PYTHONPATH=src python tests/_named_sets.py
"""

from __future__ import annotations

import json
import logging
import sys

from _sabotage import SWEEP
from ptwell.geometry import ModelSpec
from ptwell.shooting import solve_level

ITEM7 = [(1, eps, k) for eps, k0 in ((28.0, 20), (38.0, 14), (48.0, 11), (58.0, 9))
         for k in range(k0, 29)]
LARGE_EPS = [(M, eps, k) for M in (1, 2, 3, 4)
             for eps in (100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0) for k in (0, 1, 2, 5)]


if __name__ == "__main__":
    logging.disable(logging.WARNING)
    failed = False
    for M, eps, k in dict.fromkeys(SWEEP + ITEM7 + LARGE_EPS):
        res = solve_level(ModelSpec(M, eps), k)
        print(json.dumps({"M": M, "eps": eps, "k": k, "E": repr(res.E),
                          "iterations": res.iterations, "converged": res.converged,
                          "residual": res.residual}))
        failed |= not res.converged
    sys.exit(1 if failed else 0)
