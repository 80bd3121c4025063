"""Hypothesis profiles.  `ci` draws a fixed sequence of examples per test, so
a verdict depends only on the commit; select it with
`--hypothesis-profile=ci`.  The default profile keeps random exploration."""
from hypothesis import settings

settings.register_profile("ci", derandomize=True)
