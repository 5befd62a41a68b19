"""Repository-wide pytest set-up, shared by ``tests`` and ``perfbench/tests``.

``--hypothesis-profile=ci`` selects a derandomized profile, so that a CI run
draws the same property-test examples every time; local runs keep the
default random profile.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
