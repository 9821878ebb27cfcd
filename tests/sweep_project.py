"""Compare ``optimizer.project`` of two source trees on random problems.

Run from the root of a checkout, naming the ``src`` directory of the tree
to compare against (the parent commit's, say, unpacked elsewhere):

    python tests/sweep_project.py PARENT_SRC [--src src] [--seeds 1 2 3 4] [--count 175000]

Each tree solves in its own subprocess, which imports ``bessctl`` from
that tree alone, draws the problems from its seed and prints one line per
problem: the problem and the point, as float hex.  The problems must come
out equal in both trees.  Each problem takes one of the regions that the
controller builds, a selection-table DC anchor with each AC choice, at a
shrink of 1, 7/9, 1/2 or 0.3; each weight 0, 1 or 10^U(-6, 6), not both
0; each battery bound a zero of either sign, a cut inside the region's P
box, or +-1e4; and a target uniform in +-5000 kW/kvar, or for a quarter of
the problems with one coordinate 1e-9 to 1e3 from a P bound, a cell's P
line or a cell's Q line.

The second tree's point is sorted against the first's as equal in its
bits, equal under == (so a zero of the other sign), strictly lower in the
exact objective (with one weight zero, then in the exact distance in the
other coordinate), or not lower.  A point that is not equal must also lie
in the region and the bounds to count as lower.  The script prints the
counts and each problem of the last two kinds, and exits 1 if any point
is not lower.  This is not a pytest module; it takes minutes.
"""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
from fractions import Fraction

SHRINKS = (1.0, 7.0 / 9.0, 0.5, 0.3)


def draw_problems(rng: random.Random, regions, count: int):
    """count problems (region index, p0, q0, wp, wq, p_min, p_max)."""
    for _ in range(count):
        index = rng.randrange(len(regions))
        region = regions[index]
        cells = (region.upper_cell, region.lower_cell)
        box_lo = min(c.p_lo for c in cells)
        box_hi = max(c.p_hi for c in cells)
        while True:
            wp, wq = (rng.choice((0.0, 1.0, 10.0 ** rng.uniform(-6.0, 6.0))) for _ in "pq")
            if wp + wq > 0.0:
                break
        p_min = rng.choice((0.0, -0.0, -rng.uniform(0.0, -max(box_lo, -1e4)), -1e4))
        p_max = rng.choice((0.0, -0.0, rng.uniform(0.0, min(box_hi, 1e4)), 1e4))
        p0, q0 = rng.uniform(-5000.0, 5000.0), rng.uniform(-5000.0, 5000.0)
        if rng.random() < 0.25:
            offset = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, 3.0)
            lines = [(0, p_min), (0, p_max)]
            lines += [(0, b) for c in cells for b in (c.p_lo, c.p_hi)]
            lines += [(1, b) for c in cells for b in (c.q_lo, c.q_hi)]
            axis, edge = rng.choice([(a, b) for a, b in lines if abs(b) < 1e300])
            if axis == 0:
                p0 = edge + offset
            else:
                q0 = edge + offset
        yield index, p0, q0, wp, wq, p_min, p_max


def solve(seed: int, count: int) -> None:
    """Print each drawn problem, its point and whether the point lies in
    the region and the bounds, as float hex, or the error it raised."""
    from bessctl.capability import AC_SELECTION, DC_SELECTION, build_region
    from bessctl.capability import builtin_curves, index_curves
    from bessctl.optimizer import ProjectionProblem, project

    curves = index_curves(builtin_curves())
    regions = [
        build_region([curves[a] for a in (dc, ac) if a is not None], shrink)
        for _, _, dc in DC_SELECTION
        for _, _, ac, _ in AC_SELECTION
        for shrink in SHRINKS
    ]
    out = sys.stdout
    for index, p0, q0, wp, wq, p_min, p_max in draw_problems(random.Random(seed), regions, count):
        problem = " ".join(x.hex() for x in (p0, q0, wp, wq, p_min, p_max))
        try:
            p, q = project(ProjectionProblem(p0, q0, wp, wq, regions[index], p_min, p_max))
        except (ValueError, RuntimeError) as exc:
            out.write(f"{index} {problem} ! {type(exc).__name__}\n")
            continue
        inside = int(regions[index].contains(p, q) and p_min <= p <= p_max)
        out.write(f"{index} {problem} {p.hex()} {q.hex()} {inside}\n")


def exact_key(point, problem):
    """The exact objective of point, then, with one weight zero, its squared
    distance from the target in the other coordinate."""
    p0, q0, wp, wq = (Fraction(x) for x in problem[:4])
    dp = (Fraction(point[0]) - p0) ** 2
    dq = (Fraction(point[1]) - q0) ** 2
    return wp * dp + wq * dq, dq if wq == 0 else dp if wp == 0 else 0


def run_tree(src: str, seed: int, count: int) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.abspath(__file__), "--solve", str(seed), "--count", str(count)]
    return subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)


def compare(base_src: str, new_src: str, seeds, count: int) -> int:
    counts = {"equal": 0, "equal under ==": 0, "lower": 0, "not lower": 0}
    for seed in seeds:
        with run_tree(base_src, seed, count) as base, run_tree(new_src, seed, count) as new:
            compare_lines(seed, base, new, counts)
    print(", ".join(f"{kind}: {n}" for kind, n in counts.items()))
    return 1 if counts["not lower"] else 0


def compare_lines(seed: int, base: subprocess.Popen, new: subprocess.Popen, counts) -> None:
    """Sort each problem of one seed into counts, printing the differences
    that are not a zero's sign."""
    for old_line, new_line in zip(base.stdout, new.stdout):
        if old_line == new_line:
            counts["equal"] += 1
            continue
        old, got = old_line.split(), new_line.split()
        if old[:7] != got[:7]:
            raise SystemExit(f"seed {seed}: the trees drew different problems")
        problem = [float.fromhex(x) for x in got[1:7]]
        if "!" in old or "!" in got:
            kind = "not lower"
        else:
            before = tuple(float.fromhex(x) for x in old[7:9])
            after = tuple(float.fromhex(x) for x in got[7:9])
            if before == after:
                kind = "equal under =="
            elif got[9] == "1" and exact_key(after, problem) < exact_key(before, problem):
                kind = "lower"
            else:
                kind = "not lower"
        counts[kind] += 1
        if kind != "equal under ==":
            print(f"{kind}: seed {seed} region {got[0]} problem {problem}: "
                  f"{' '.join(old[7:])} -> {' '.join(got[7:])}")
    for proc in (base, new):
        if proc.wait() != 0:
            raise SystemExit(f"seed {seed}: a solver exited with {proc.returncode}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src", nargs="?", help="src directory of the tree to compare against")
    parser.add_argument("--src", default="src", help="src directory of the changed tree")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4])
    parser.add_argument("--count", type=int, default=175_000, help="problems per seed")
    parser.add_argument("--solve", type=int, metavar="SEED", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.solve is not None:
        solve(args.solve, args.count)
        return 0
    if args.base_src is None:
        parser.error("name the src directory of the tree to compare against")
    return compare(args.base_src, args.src, args.seeds, args.count)


if __name__ == "__main__":
    sys.exit(main())
