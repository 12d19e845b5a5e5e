"""Shared test settings: hypothesis runs a fixed, bounded set of examples,
so every run of the suite draws the same cases."""

from hypothesis import settings

settings.register_profile(
    "sabrkit", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.load_profile("sabrkit")
