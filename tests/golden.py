"""The cells of ``golden_cells.json`` and the comparison the tests make with them.

The errors and rates of ``table1``-``table3`` were computed at one
OpenBLAS thread by the tree that predicts each SDIRK stage from its own
derivatives in the last three steps.  They lie within 4.3e-12 of a run
with the stage tolerance at 4e-15, so at ``CELL_RTOL`` they pin where the
stage iterations stop, not only the solution.  The quotient rows that
acceptance criteria 4 and 5 read were computed at one OpenBLAS thread by
the tree that still factored the mass blocks with its own recursive LU.
``ratios.csv`` holds the N = 16 and 32 rows of the ``table5`` and
``table5b`` chains n = 16 32 64 128 as ``solver run`` printed them, at one
OpenBLAS thread, on the tree that solved them with LAPACK.

``converged`` holds the ``table1``-``table3`` errors of one run, at one
OpenBLAS thread, of a copy of the same tree with ``STAGE_TOL`` set to
4e-15: the errors of the discretization with the stage systems solved to
round-off.  A change to the stage solve alone may move the cells above at
``CELL_RTOL``, and then regenerates them, but it must keep the errors within
``CONVERGED_ATOL`` of this entry.  The shipped stage tolerance 1e-12 lies
within 4.3e-12 of it; 1e-10 lies up to 7.6e-10 away.  Regenerate the entry
only when the discretization changes.
"""

import json
from pathlib import Path

GOLDEN = json.loads(Path(__file__).with_name("golden_cells.json").read_text())
# per cell, relative, with a floor of CELL_FLOOR x the column's largest value
# (an error near the round-off of its column); two BLAS threads moved the
# error tables by at most 2.4e-10
CELL_RTOL, CELL_FLOOR = 1e-9, 1e-12
# a quotient row carries fewer digits than it prints: FOUND 32 in CHANGES.md
# saw table5b's N = 128 row move by 2e-8 under one rounding change
RATIO_RTOL = 1e-7
# absolute, about twice the largest distance of a 1e-12 stage solve seen
CONVERGED_ATOL = 2e-11


def match_golden(what, cells, golden, rtol, atol=0.0):
    floor = max(CELL_FLOOR * max(abs(g) for g in golden), atol)
    off = [f"{c!r} (golden {g!r})" for c, g in zip(cells, golden, strict=True)
           if not abs(c - g) <= max(rtol * abs(g), floor)]
    assert not off, f"{what}: {', '.join(off)}"
