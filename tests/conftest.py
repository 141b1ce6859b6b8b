"""Hypothesis profiles.

``ci`` draws the same examples on every run and prints the blob that
replays a failure, so a red CI run can be reproduced from the commit alone.
Select it with ``python -m pytest --hypothesis-profile=ci``.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
