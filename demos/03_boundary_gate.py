"""Singular initial data and the solvability gate.

Every family starts from a singular problem y' = M_-1(y)/t + M(t,y).
Existence and uniqueness of the analytic solution needs M_-1(y0) = 0
and no positive integer eigenvalue of dM_-1(y0); the gate report checks
both.  The boundary coefficients themselves come from the order-by-order
series balance, never from transcribed formulas.
"""

import numpy as np

from g2flow import (make_bryant_salamon, malgrange_check, p1_ivp, pid_ivp,
                    series_bootstrap)

bs = make_bryant_salamon()

ivp = p1_ivp(bs, (1.0, 1.0, 1.0))
rep = malgrange_check(ivp)
print("p1 gate: pass=%s  |M_-1(y0)| = %.2e" % (rep.gate_pass,
                                               rep.residual_at_y0))
print("p1 eigenvalues:", np.sort(rep.eigenvalues.real))

# the engine's verdict on the two published u_i(0) candidates
bv = ivp.meta["boundary_variants"]
print("engine u_i(0):  %s" % (np.round(bv["engine"], 12),))
print("candidate A:    %s" % (np.round(bv["statement"], 12),))
print("candidate B:    %s" % (np.round(bv["proof"], 12),))
print("engine confirms: %s" % bv["match"])

ivp2 = pid_ivp(bs, 0.5)
rep2 = malgrange_check(ivp2)
print("\npid gate: pass=%s" % rep2.gate_pass)
print("pid eigenvalues:", np.round(np.sort(rep2.eigenvalues.real), 10))
b = ivp2.meta["boundary"]
print("forced data at b0_minus=0.5: b2_plus=%g  v_i(0)=%s"
      % (b.b2_plus, b.v0))

# first Taylor coefficients of the bootstrapped solution
series = series_bootstrap(ivp, order=6, check=rep)
print("\nu_1(t) series coefficients:", np.round(series[0].c, 8))
