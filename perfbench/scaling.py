"""Growth of the costliest calls with model size, for the README's table.

    python3 perfbench/scaling.py [--seed 0]

Times in reference seconds (refclock.py), on fresh objects at each size:
graded_basis(c(Pi), 2) and dim_affine_pp(Pi, 2) with its cross-check on F3C
subdivided 1, 4, 8 and 12 times (5, 11, 19 and 27 maximal cells), and
green_from_lifting plus is_green on rank-one chains of length 3, 6, 9 and
12.  One sample per size: these figures show the growth, not a steady
metric.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import refclock  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


def timed(fn):
    result, error, _, ref, _ = refclock.Timer().time(fn, refclock.calibrate())
    if error is not None:
        raise error
    return ref


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    pp = run.import_program()
    history = wl.grow_p2(args.seed, 12)

    def fresh(steps):
        model = wl.P2Model(history[steps])
        return pp.polyhedra.PolyComplex(
            2, [pp.polyhedra.Polyhedron(2, v, r) for v, r in model.cells()])

    for steps in (1, 4, 8, 12):
        pc = fresh(steps)
        gb = timed(lambda: pp.ppfan.graded_basis(pp.polyhedra.cone_over(pc).fan, 2))
        pc = fresh(steps)
        aff = timed(lambda: pp.specialfiber.dim_affine_pp(pc, 2))
        print(f"{3 + 2 * steps:3d} maximal cells: graded_basis(c(Pi), 2) {gb:6.2f} s, "
              f"dim_affine_pp(Pi, 2) {aff:6.2f} s", flush=True)
    eta = pp.cycles.InvariantCycle(1, 1, {((1,),): 1})
    for length in (3, 6, 9, 12):
        chain = wl.P1Towers.build_chain(pp, wl.grow_p1(args.seed, length))
        green = timed(lambda: wl.P1Towers.green(pp, chain, eta))
        print(f"chain of length {length:2d}: green_from_lifting + is_green {green:6.2f} s",
              flush=True)


if __name__ == "__main__":
    main()
