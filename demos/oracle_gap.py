"""Measure the DP approximation gap against brute-force enumeration.

The stage DP keeps one best predecessor per node, so constraint orders
that need chain history (jerk, torque rate) are checked against a pinned
history rather than all of them. On most instances that changes nothing.
The bundled jerk toy is built so it does: the cheap predecessor kills the
cheap continuation, and the DP pays a measurably longer plan.
"""

from redplan.oracle import compare, exhaustive_plan
from redplan.planner import plan
from redplan.scenario import bundled_scenario


def main():
    for name in ("toy_velocity", "toy_full", "toy_jerk"):
        sc = bundled_scenario(name)
        grid = sc.build()
        # both searches run on the whole grid, so no window here
        dp = plan(grid, sc.limits, check_count=sc.check_count)
        oracle = exhaustive_plan(grid, sc.limits, check_count=sc.check_count)
        rep = compare(dp, oracle)
        print(f"{name}: dp {rep.dp_cost:.10g}  oracle {rep.oracle_cost:.10g}  "
              f"gap {rep.gap:.10g}")
        if rep.gap > 0:
            blame = {k: v for k, v in rep.attribution.items() if v != 0.0}
            print(f"  gap attribution by constraint order: {blame}")
            print(f"  dp chain     {list(map(int, dp.node_ids))}")
            print(f"  oracle chain {list(map(int, oracle.node_ids))}")
    print()
    print("the gap is one-sided by construction: dp cost >= oracle cost")


if __name__ == "__main__":
    main()
