"""Physical layer walk-through: phasor network solve and droop primary control.

The plant is a 4-bus ring of RL lines with droop-controlled voltage-source
DGs at every bus and RL loads at buses 1 and 3.  The network is purely
algebraic (quasi-static phasors); this script solves it directly and checks
the power balance by hand.
"""

import numpy as np

from mgres import PlantWorkspace, default_model, solve_network, step_plant

model = default_model()
dt = 1e-4

# Solve the network with all DGs at 1.0 pu, zero relative angle.  A plant
# workspace holds the state, the network of its load epoch and the solve's
# buffers; a new one starts at zero angles.
sol = PlantWorkspace(model, dt, droop=np.empty((2, 4)))
sol.v[:] = 1.0
solve_network(sol)
print("bus voltages [pu]:", np.round(np.abs(sol.bus_v), 4))
print("DG active power  [pu]:", np.round(sol.s_dg.real, 4))
print("DG reactive power [pu]:", np.round(sol.s_dg.imag, 4))
print(f"power balance residual: {sol.balance_residual:.2e}")

# Droop: loaded DGs depress their voltage and frequency below the set-points.
# step_plant applies v = V_n - n_Q q and w = w_n - m_P p to the filtered
# powers; with the filters settled at the powers above, its outputs are the
# droop operating point at this load.
loaded = PlantWorkspace(model, dt, droop=np.empty((2, 4)))
loaded.pq[:] = sol.s_dg.real, sol.s_dg.imag
setpoints = np.array([np.ones(4), np.full(4, 2 * np.pi * 60)])  # [V_n; w_n]
step_plant(loaded, setpoints, t=0.0)
print(f"\ndroop output for DG1 at this load: v = {loaded.v[0]:.4f} pu, "
      f"f = {loaded.w[0] / (2 * np.pi):.4f} Hz")

# One Euler step of the dynamic layers (power filters + angles) from rest:
# a new workspace starts with zero angles and zero filtered powers.
plant = PlantWorkspace(model, dt, droop=np.empty((2, 4)))
step_plant(plant, setpoints, t=0.0)
print("\nfiltered power after one 0.1 ms step:", np.round(plant.p, 6))
print("(the 31.4 rad/s low-pass filters need ~0.1 s to see the full load)")
