"""Hypothesis profiles for the tier-1 suite.

The default profile is hypothesis' own. ``deep`` runs 1,000 examples per
property with no deadline; select it with ``--hypothesis-profile=deep``.
Tests that set ``max_examples`` themselves keep their own count.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=1000, deadline=None)
