"""Imports every non-test module of the repository before any test runs.

Hypothesis mixes the literal constants of the local modules loaded at the time
into its draws (``hypothesis.internal.conjecture.providers._get_local_constants``),
so the examples a property test tries depend on which modules pytest has
imported by then.  With all of them loaded here, a run of one test file and a
run of the whole suite draw the same examples.
"""

import stepbench.checks  # noqa: F401  (with stepbench.oracles and stepbench.workloads)
import stepspectra.cli  # noqa: F401  (and with it the whole package)
