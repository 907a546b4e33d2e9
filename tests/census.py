"""Solve the whole census of hard systems with each scheme and check the counts.

The census is ``census_systems()`` of ``conftest.py``: 243 systems.  Each
scheme's census runs in its own process, so no scheme's solves see what
another's left allocated.  A scheme's counts are the systems it solves to
the default rel_tol and the refinement sweeps it runs (first iterates that
miss the gate).  They were measured when this script was committed: a lower
solved count is a regression, not a new baseline.  pytest does not collect
this file; run it as

    python tests/census.py            # every scheme, one process each
    python tests/census.py central    # one scheme in this process
"""

import subprocess
import sys

from conftest import census_systems

from wignerdv import SolverError, fd, solve_bvp

EXPECTED = {"central": (167, 107), "upwind1": (243, 0), "upwind2": (238, 6)}


def census_counts(scheme: str) -> tuple:
    """(solved, refinement sweeps) of one scheme over the census."""
    sweep, refinements = fd._block_sweep, []
    fd._block_sweep = lambda op, rhs=None: refinements.append(rhs is not None) or sweep(op, rhs)
    solved = 0
    try:
        for _, system in census_systems():
            try:
                solved += solve_bvp(system, scheme).residual <= 1e-12
            except SolverError:
                pass
    finally:
        fd._block_sweep = sweep
    return solved, sum(refinements)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        counts = census_counts(sys.argv[1])
        print(f"{sys.argv[1]}: {counts[0]} solved, {counts[1]} refinement sweeps (expected {EXPECTED[sys.argv[1]]})")
        sys.exit(counts != EXPECTED[sys.argv[1]])
    failed = [scheme for scheme in EXPECTED if subprocess.run([sys.executable, __file__, scheme]).returncode]
    sys.exit(f"census counts changed for {', '.join(failed)}" if failed else 0)
