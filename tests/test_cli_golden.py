"""Every CLI verb's output, byte for byte, against golden files.

The inputs and the expected outputs live in ``tests/data/cli/``; each verb
runs in-process with that directory as the working directory, so the file
names echoed in the output are stable.  A change of numerics must say so
and regenerate the goldens it changes, by name (no name: all of them), with

    PYTHONPATH=src python tests/test_cli_golden.py [NAME ...]
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from slicestar.cli import main

DATA = Path(__file__).parent / "data" / "cli"

CASES = {
    "log-real": ["log", "--fn", "f-real.json", "--h1", "1", "--h2", "-1",
                 "--basepoint", "0.1,0.2", "--samples", "12"],
    "log-two-sided": ["log", "--fn", "f-two-sided.json", "--h1", "1", "--h2", "0",
                      "--basepoint", "0.2,-1.4", "--samples", "12"],
    "log-real-csv": ["log", "--fn", "f-real.json", "--h1", "-2", "--h2", "2",
                     "--basepoint=-0.3,0.0", "--samples", "8", "--csv"],
    "log-two-sided-csv": ["log", "--fn", "f-two-sided.json", "--h1", "0", "--h2", "2",
                          "--basepoint", "0.1,1.6", "--samples", "8", "--csv"],
    "root-n2": ["root", "--fn", "f-real.json", "--n", "2",
                "--basepoint", "0.1,0.0", "--samples", "12"],
    "root-n3": ["root", "--fn", "f-two-sided.json", "--n", "3", "--h1", "1",
                "--h2", "-2", "--basepoint", "0.0,1.5", "--samples", "12"],
    "root-n2-csv": ["root", "--fn", "f-two-sided.json", "--n", "2",
                    "--basepoint", "0.3,1.2", "--samples", "8", "--csv"],
    "bch": ["bch", "--f", "bch-f.json", "--g", "bch-g.json", "--samples", "12"],
    "bch-inadmissible": ["bch", "--f", "bch-lattice.json", "--g", "bch-g.json"],
    "dexp": ["dexp", "--f", "f-real.json", "--at", "[0.2,0.3,-0.1,0.25]"],
    "lift": ["lift", "--path", "path.json"],
    "monodromy": ["monodromy", "--path", "loop.json"],
    # alpha winds with 5 samples per turn, so log alpha moves by about 1.26
    # from one sample to the next: more than MAX_LOG_STEP, so each segment
    # is halved
    "lift-coarse": ["lift", "--path", "loop-coarse.json"],
    "monodromy-coarse": ["monodromy", "--path", "loop-coarse.json"],
    "eval": ["eval", "--fn", "f-two-sided.json", "--at", "[0.1,0.9,-1.2,0.3]"],
    "verify-algebra": ["verify", "--suite", "algebra", "--seed", "2",
                       "--samples", "10"],
    "verify-all": ["verify", "--suite", "all", "--seed", "1", "--samples", "200"],
}


def run_case(name: str) -> tuple[int, str]:
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        with contextlib.redirect_stdout(out):
            code = main(CASES[name])
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_byte_for_byte(name):
    code, out = run_case(name)
    assert code == 0
    assert out == (DATA / f"{name}.out").read_text()


if __name__ == "__main__":
    unknown = set(sys.argv[1:]) - set(CASES)
    if unknown:
        sys.exit(f"unknown golden(s): {', '.join(sorted(unknown))}; "
                 f"choose from {', '.join(sorted(CASES))}")
    for name in sys.argv[1:] or sorted(CASES):
        code, out = run_case(name)
        assert code == 0, (name, code)
        (DATA / f"{name}.out").write_text(out)
