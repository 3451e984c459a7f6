"""Process entry of `python -m semicascade` and the `semicascade` script.

`run` imports the CLI, which loads the package, numpy and scipy, and then
freezes the heap with `gc.freeze`. The tens of thousands of objects the
import leaves behind move to the permanent generation, so neither a
full collection during the run nor interpreter shutdown walks them
again. Outputs do not change. `cli.main` called in-process (tests,
library callers) does not touch the collector.
"""

import gc
import sys


def run():
    from .cli import main

    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
