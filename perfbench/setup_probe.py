"""What a user pays on every CLI start, run in a fresh interpreter.

Imports numpy and rootcert from the checkout's ``src``, writes the operator
files into the directory given as the only argument, and makes one small
falsify call.  ``run.py`` times this script from spawn to exit.

    python3 perfbench/setup_probe.py DIR
"""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402,F401
from rootcert import cli  # noqa: E402

from battery import write_operator_files  # noqa: E402


def main() -> int:
    ops = write_operator_files(Path(sys.argv[1]))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["falsify", str(ops["identity"]), "--domain",
                         "upper-half-plane", "--json", "--trials", "20"])
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
