"""Hypothesis settings profiles for the suite.

``deep`` runs every property at ten times hypothesis's default example
count.  The eight oracle suites (kernel, event, pipe, wire, matching,
collective-model, invariant, summary), the hand-off and pair
properties, the XOR cost relations, the kill lattice and the scheduler
properties scale their ``max_examples`` with it, so ``python
-m pytest tests/test_kernel_oracle.py --hypothesis-profile=deep`` runs
them at ten times their tier-1 counts; the two-kill window table runs
every point where tier-1 runs every tenth.  Tier-1 itself loads no
profile.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=10 * settings.default.max_examples)
