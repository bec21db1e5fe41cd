"""Tour of the warped 4-dimensional chart with a line kernel.

Walks the p = 3 + cos(u) + cos(w) family end to end: curvature at the
origin, the kernel direction, the splitting tensor in the adapted frame,
and the Riccati prediction checked against re-measurement along the
kernel geodesic.

Run:  python3 demos/worked_example.py
"""

import math

import numpy as np

from geonull.curvature import curvature_data
from geonull.metricspace import catalog_conullity3
from geonull.splitting import _divergence_residual, classify, evolve_along_nullity_geodesic

np.set_printoptions(precision=6, suppress=True)

metric = catalog_conullity3("3+cos(u)+cos(w)")
origin = np.zeros(4)

print(f"chart: {metric.name}, coordinates {metric.coordinates}")

data = curvature_data(metric, origin)
print(f"\nscalar curvature (double trace): {data.scalar_trace:+.6f}")
print(f"kernel dimension {data.nullity.nullity}, conullity {data.nullity.conullity}")
print(f"kernel direction: {data.nullity.basis[0]}")

report = evolve_along_nullity_geodesic(metric, origin, tmax=0.4)
matrix = report.start_matrix
print("\nsplitting tensor in the adapted frame, solved from nabla R where the kernel geodesic starts:")
print(matrix)
print(f"expected corner entry sqrt(2)/5 = {math.sqrt(2.0) / 5.0:.6f}")
print(f"classification: {classify(matrix, tol=2e-4).kind}")

print("\nriding the kernel geodesic for t in [0, 0.4]:")
for t, measured, predicted in zip(report.sample_times, report.measured, report.predicted):
    gap = np.abs(np.asarray(measured) - np.asarray(predicted)).max()
    print(f"  t={t:4.2f}  C01 measured {measured[0][1]:.9f}  predicted {predicted[0][1]:.9f}  gap {gap:.2e}")
print(f"worst measured-vs-predicted entry gap: {report.max_error:.2e}")
# verify's divergence_is_minus_trace: div T from a stencil of the kernel field, independent of the solve
print(f"divergence check |div T + tr C|: {_divergence_residual(metric, report):.2e}")
