"""Plan the bundled straight-line scenario and walk through the result.

Shows the phase-space trajectory the unified planner picks: which
redundancy column it rides at each waypoint, how the pseudo-velocity
ramps, and which constraint order is pinned against its bound.
"""

import numpy as np

from redplan.planner import plan
from redplan.scenario import bundled_scenario


def main():
    sc = bundled_scenario("line")
    grid = sc.build()
    result = plan(grid, sc.limits, check_count=sc.check_count, window=sc.window)

    prof = result.profile
    sat = result.saturation
    print(f"scenario       {sc.name} ({grid.n_stages} stages, "
          f"{grid.total_admissible} admissible nodes)")
    print(f"optimal cost   {result.cost:.6f} s")
    print(f"saturation     {sat.percentage:.1f}% of counted waypoints "
          f"within 1e-3 of a bound")
    print()
    print(f"{'stage':>5} {'lam':>7} {'pv':>7} {'v':>7} {'active':>7} {'ratio':>7}")
    v_index = grid.robot.chain.redundancy_indices[0]
    for i in range(grid.n_stages + 1):
        v = prof.q[i, v_index]
        order = sat.active_order[i] or "-"
        ratio = sat.stage_ratio[i]
        ratio_s = f"{ratio:7.3f}" if np.isfinite(ratio) else "      -"
        print(f"{i:>5} {prof.lam[i]:7.3f} {prof.pv[i]:7.3f} {v:7.3f} "
              f"{order:>7} {ratio_s}")
    print()
    print("run `redplan plan --scenario <path>` for the CSV/JSON artifacts")


if __name__ == "__main__":
    main()
