"""End-to-end run on the manufactured problem, at a resolution small
enough to finish in seconds.

Builds the global bracketing pair, runs three refinement stages, then
prints the certificate margins and the distance of the known solution
to every stage band. For the full-resolution run use the command line:

    ordercomplete run demos/manufactured_1d.spec --gamma 0.2 --stages 5 --out out/
"""

import numpy as np

from ordercomplete.analysis import compare_reference
from ordercomplete.cli import load_spec
from ordercomplete.grids import GridDomain
from ordercomplete.checker import scheme_verdict
from ordercomplete.solver import global_pair, run_scheme

system, exact, _ = load_spec("demos/manufactured_1d.spec")
domain = GridDomain(system.box_lo, system.box_hi, (161,))

gp = global_pair(system, domain, eps=0.2)
c = gp.certificate
print(f"global pair on {len(gp.cells)} cells, eps={c.eps}")
print(f"  margins: {c.lower_gap:.4f} {c.lower_strict:.4f} "
      f"{c.upper_strict:.4f} {c.upper_gap:.4f}  passed={c.passed}")

res = run_scheme(system, domain, gamma=0.2, N=3)
verdict, _ = scheme_verdict(res.stages, res, c)
print(f"\nscheme verdict: {verdict}, final sup-gap {res.final_sup_gap:.5f}")
for s in res.stages:
    print(f"  stage {s.n}: eq1 slack ({s.eq1.lower_slack:.4f}, "
          f"{s.eq1.upper_slack:.4f}), eq3 ratio {s.eq3.max_ratio:.4f}")

rep = compare_reference(system, exact, res.bands_by_stage)
print("\ndistance of the exact solution's jets to each stage band:")
for s, d in zip(res.stages, rep.distances):
    worst = max(d.values())
    print(f"  stage {s.n}: max {worst:.4f}"
          + ("  (contained)" if worst == 0 else ""))
print("note: late-stage bands track the solver's own iterates, not the")
print("exact solution; positive distances past stage 2 are expected here.")
