"""Regenerate the stored reference outputs in bench/expected/ from the current code.

Run from the repository root:  python3 bench/make_expected.py

The stored files are the reference that later commits are checked
against, so regenerate them only on a commit whose outputs are trusted.
They hold the singular-integral values (no independent oracle is cheap
enough to run per op) and the data file of every CLI scenario.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.prepare()

from cubelab import arcs, params  # noqa: E402

from workloads import WORKLOADS, ArcOps  # noqa: E402

SINGULAR = [("u", 40.0), ("W", 24.0)]
BASES = (4_000_000, 5_000_000, 6_000_000)
THETA = 0.3
TOL = 1e-8


def singular_cases() -> list[dict]:
    cases = []
    for N in BASES:
        p = params.derive_parameters(N, THETA)
        for k in (1, 2, 3):
            n = N + k * (N // 7) + 1
            for kind, L in SINGULAR:
                value = arcs.truncated_singular_integral(n, p, kind, tol=TOL, L=L)
                cases.append({"N": N, "n": n, "theta": THETA, "kind": kind, "L": L,
                              "tol": TOL, "value": value})
    return cases


def main() -> None:
    out = HERE / "expected"
    out.mkdir(exist_ok=True)
    ArcOps.SINGULAR_CASES.write_text(json.dumps(singular_cases(), indent=1) + "\n")
    for wl in WORKLOADS.values():
        for command in wl.cli:
            *argv, name = command
            target = out / f"{name}.csv"
            subprocess.run(run.cli_argv(argv, target), check=True, cwd=ROOT,
                           env=run.child_env(), stdout=subprocess.DEVNULL)
            target.with_suffix(".csv.manifest.json").unlink()


if __name__ == "__main__":
    main()
