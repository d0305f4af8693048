#!/usr/bin/env python3
"""One-command reproduction run.

Recomputes local bounds, seesaw maxima, fixture evaluations and class
assignments for the whole catalog and writes report.json (plus a flat
CSV) into the chosen directory. Exit code follows the tables command:
0 all match, 1 bad options, 2 any mismatch, 3 solver trouble, 4 a row
failed with an error or an embedded table failed its integrity check.
"""

import argparse
import pathlib
import sys

from tribell.cli import main as tribell_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="reports", help="where to put the files")
    parser.add_argument("--restarts", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--npa", action="append", choices=["q1", "1ab", "aq", "q2"],
                        help="also certify this moment-matrix level (repeatable)")
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    argv = [
        "tables",
        "--out", str(out_dir / "report.json"),
        "--csv", str(out_dir / "report.csv"),
        "--restarts", str(args.restarts),
        "--seed", str(args.seed),
    ]
    for level in args.npa or []:
        argv += ["--npa", level]
    code = tribell_main(argv)
    print(f"report written to {out_dir / 'report.json'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
