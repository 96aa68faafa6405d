"""``python -m alqsim`` and the installed ``alqsim`` script: run the CLI.

After :func:`alqsim.cli.main` returns, ``gc.freeze`` moves every object the
run left alive into the collector's permanent generation, so the full
collection at interpreter exit skips them.  On the ``short-rounds``
benchmark workload (2-core Xeon, Python 3.11) the time from ``main``'s
return to the end of the process fell from about 50 ms to 16 ms.  ``main``
itself does not freeze, because tests call it in-process.

Importing this module sets ``OPENBLAS_NUM_THREADS=1`` unless the caller has
set ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``;
a caller's own value always wins.  OpenBLAS reads the variable once, when
numpy loads, so it is set here before :mod:`alqsim.cli` imports numpy (the
package root imports nothing).  No BLAS call the CLI makes is large enough
to run threaded (the largest score ``(4010, 4)`` rows or solve 5 x 5
Newton systems), but by default OpenBLAS starts a helper thread per extra
core, which spins before it sleeps.  On a 2-core Xeon (Python 3.11, numpy
2.4) a fresh ``import alqsim.cli`` took 0.245 s of CPU for 0.158 s of wall
with the helper and 0.152 s for 0.152 s without it (medians of 20 pairs),
and the ``paper`` benchmark workload's ``cpu_s`` fell from 0.491 s to
0.361 s (-26%, 10 of 10 pairs) with no change in wall time.  Pool workers
inherit the setting, so ``--jobs`` stays the only parallelism.
"""

import gc
import os
import sys

if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .cli import main  # noqa: E402  (numpy must load after the cap)


def run() -> int:
    """Run the CLI on ``sys.argv`` and return its exit code."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
