"""Phase portrait of the order-3 extremist process on two-part graphons.

Graphons taking value x on both diagonal blocks and y off-diagonal form
a plane that the extremist flow never leaves.  The script samples the
velocity field on a grid and integrates two nearby trajectories whose
fates differ, writing CSVs ready for a quiver/line plot:

    output/extremist_field.csv       x,y,vx,vy
    output/extremist_traj_A.csv      t,cell_1_1,cell_1_2,cell_2_2
    output/extremist_traj_B.csv      t,cell_1_1,cell_1_2,cell_2_2
"""

import os

import numpy as np

from flipflow import VelocityPlan, extremist_rule, integrate, two_block

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

rule = extremist_rule(3)

# the two-block states [x, y, x] (packed cells 11, 12, 22) of the grid, in one call
grid = np.linspace(0, 1, 21)
xs, ys = np.repeat(grid, len(grid)), np.tile(grid, len(grid))
field = VelocityPlan(rule, (0.5, 0.5))(np.column_stack((xs, ys, xs)))
with open(os.path.join(OUT, "extremist_field.csv"), "w") as fh:
    fh.write("x,y,vx,vy\n")
    for x, y, vx, vy in zip(xs, ys, field[:, 0], field[:, 1]):
        fh.write(f"{x!r},{y!r},{vx!r},{vy!r}\n")
print("wrote extremist_field.csv (21 x 21 grid)")

for label, y0 in (("A", 0.18), ("B", 0.15)):
    w0 = two_block((0.5, 0.5), 0.95, 0.95, y0)
    traj = integrate(rule, w0, 1.4, checkpoint_times=np.arange(0.0, 1.5, 0.2))
    path = os.path.join(OUT, f"extremist_traj_{label}.csv")
    with open(path, "w") as fh:
        fh.write("t,cell_1_1,cell_1_2,cell_2_2\n")
        for t, w in traj.checkpoints:
            fh.write(f"{t!r},{w.values[0, 0]!r},{w.values[0, 1]!r},{w.values[1, 1]!r}\n")
    final = traj.checkpoints[-1][1]
    print(
        f"trajectory {label}: start (0.95, {y0}) -> t=1.4 at "
        f"({final.values[0, 0]:.4f}, {final.values[0, 1]:.4f})"
    )
print("nearby starts, visibly different fates: the off-diagonal value decides")
