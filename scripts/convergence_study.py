"""Self-convergence ladders on the Brownian band instance.

Runs the grid-size, Gaver-depth and outer-tolerance ladders through
`rsbarrier convergence` and prints the successive differences.  The Gaver
ladder shows where double-precision GWR stops improving; the README's
defaults table lists the settings each ladder starts from.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

from rsbarrier.cli import main as cli_main

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "brownian_band.json"


def ladder(param: str, values: str) -> None:
    print(f"--- {param} ladder: {values}")
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli_main(["convergence", "--config", str(CONFIG),
                       "--param", param, "--values", values, "--threads", "1"])
    if rc != 0:
        raise SystemExit(rc)
    print(buf.getvalue())


def main() -> int:
    ladder("mPower", "12,13,14,15")
    ladder("nGaver", "4,6,8")
    ladder("tolOuter", "1e-6,1e-8,1e-10")
    return 0


if __name__ == "__main__":
    sys.exit(main())
