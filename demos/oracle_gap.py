"""Measure the DP approximation gap against the exact oracle.

The stage DP keeps one best predecessor per node, so constraint orders
that need chain history (jerk, torque rate) are checked against a pinned
history rather than all of them. On most instances that changes nothing.
The bundled jerk toy is built so it does: the cheap predecessor kills the
cheap continuation, and the DP pays a measurably longer plan.
"""

from redplan.oracle import compare
from redplan.scenario import bundled_scenario


def main():
    for name in ("toy_velocity", "toy_full", "toy_jerk"):
        sc = bundled_scenario(name)
        rep = compare(sc.build(), sc.limits, sc.check_count)
        print(f"{name}: dp {rep.dp.cost:.10g}  oracle {rep.oracle.cost:.10g}  "
              f"gap {rep.gap:.10g}")
        if rep.gap > 0:
            blame = {k: v for k, v in rep.attribution.items() if v != 0.0}
            print(f"  gap attribution by constraint order: {blame}")
            print(f"  dp chain     {list(map(int, rep.dp.node_ids))}")
            print(f"  oracle chain {list(map(int, rep.oracle.node_ids))}")
    print()
    print("the gap is one-sided by construction: dp cost >= oracle cost")


if __name__ == "__main__":
    main()
