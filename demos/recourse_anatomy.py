"""What the recourse LP actually does, on a grid you can hold in your head.

Two buses, one branch: a safe generator bus feeding a flooded demand
bus. The DC power-flow recourse decides how much demand survives once a
scenario knocks substations out. Each energized component is first
served in closed form, demand and generation matched in proportion; if
those flows fit the line and angle bounds that point is optimal, and
otherwise the component's LP runs on the simplex. Each case prints the
route it took.

    python3 demos/recourse_anatomy.py
"""
import math

import numpy as np

from nortagrid.grid import Branch, Bus, GridInstance, HardeningPlan, Substation, operational_topology
from nortagrid.twostage import RecourseSolver


def two_bus(susceptance):
    subs = [Substation(0, False, 1.0, 1.0, 5), Substation(1, True, 1.0, 1.0, 5)]
    buses = [Bus(0, 0, 0.0, 0.0, 20.0), Bus(1, 1, 5.0, 0.0, 0.0)]
    branches = [Branch(0, 0, 1, susceptance, 10.0)]
    return GridInstance(subs, buses, branches, reference_bus=0, budget=100.0)


def route(solver):
    if solver.lp_solves:
        return "simplex LP (a line or an angle binds)"
    if solver.certified:
        return "certified in closed form, no LP"
    return "nothing to solve (no component has both demand and generation)"


def show(tag, grid, z):
    solver = RecourseSolver(grid)
    sol = solver.solve_topology(z)
    print(f"{tag:34s} shed {sol.shed:7.4f}   flow {float(sol.e[0]):7.4f}   "
          f"angles {np.round(sol.alpha, 4).tolist()}")
    print(f"    route: {route(solver)}")
    return sol


print("demand bus alive, branch B=1, F=10:")
sol = show("  angle bound binds", two_bus(1.0), [True, True])
print(f"    |angle spread| = pi caps flow at B*pi = {math.pi:.4f}, "
      f"so shed = 5 - pi = {5 - math.pi:.4f}")
print()

print("same grid with B=10 (stiff branch):")
show("  full delivery", two_bus(10.0), [True, True])
print()

print("scenario kills the demand bus:")
sol = show("  dead bus sheds its demand", two_bus(10.0), [True, False])
print(f"    served s = {sol.s.tolist()} (dead bus may serve nothing)")
print()

# protection heights drive which pattern the LP sees
grid = two_bus(10.0)
print("height vs a flood of depth 3 at substation 1:")
for h in range(5):
    z = operational_topology(grid, HardeningPlan([h]), np.array([3.0]))
    shed = RecourseSolver(grid).shed_for_topology(z)
    status = "up  " if z[1] else "down"
    print(f"  x={h}  bus 1 {status}  shed {shed:.4f}")
print("protection at or above the flood height keeps the bus, and shed")
print("never increases as the height rises.")
