"""Fixed reference computation that measures the speed of the machine.

The host is shared: its speed drifts by tens of percent over seconds to
minutes, and every command slows or speeds up with it. The benchmark runs this
script after each command and divides the command's times by the reference's
median, so the reported times follow the program rather than the neighbours.

It does the same kind of work as the commands (interpreter start, numpy
import, Python-level dispatch of small numpy operations, float formatting) and
never imports the package, so no change to the program moves it.
"""

import numpy as np

rng = np.random.default_rng(0)
m = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
v = rng.standard_normal(4)
acc = rng.standard_normal((400, 16))
cells = []
for i in range(6000):
    y = np.linalg.solve(m, v)
    z = m @ y + 0.5 * v
    acc[:, i % 16] += 1e-3 * z[i % 4]
    cells.append(",".join(repr(float(c)) for c in z))
total = float(np.einsum("pi,pj->", acc, acc))
