"""Two-stage baseline against the unified planner on both bundled scenarios.

The baseline resolves the redundancy first (manipulability gradient in the
task null space), then time-parametrizes the frozen joint path with the
same constraint machinery and pseudo-velocity lattice. Decoupling the two
decisions costs real time on both geometries.
"""

import numpy as np

from redplan.baseline import resolve_redundancy, time_parametrize
from redplan.planner import plan
from redplan.scenario import bundled_scenario


def main():
    for name in ("line", "ellipse"):
        sc = bundled_scenario(name)
        path = sc.sample()
        joint_path = resolve_redundancy(sc.robot, path, sc.baseline)
        pinned = time_parametrize(sc.robot, path, joint_path, sc.limits, sc.grid,
                                  check_count=sc.check_count)
        # the pinned grid is searched whole, so the unified one is too
        unified = plan(sc.build(), sc.limits, check_count=sc.check_count)

        v_index = 0  # the redundancy parameters are the first r joints
        v_pinned = joint_path.q[:, v_index]
        v_unified = unified.profile.q[:, v_index]
        gap = (pinned.cost - unified.cost) / unified.cost
        print(f"{name}: {path.n_stages} stages")
        print(f"  two-stage cost  {pinned.cost:.6f} s "
              f"(redundancy frozen before timing)")
        print(f"  unified cost    {unified.cost:.6f} s")
        print(f"  gap             +{100 * gap:.1f}% for the two-stage plan")
        print(f"  v ranges        two-stage [{v_pinned.min():.3f}, "
              f"{v_pinned.max():.3f}], unified [{v_unified.min():.3f}, "
              f"{v_unified.max():.3f}], mean |dv| "
              f"{np.mean(np.abs(v_pinned - v_unified)):.3f}")
        print()


if __name__ == "__main__":
    main()
