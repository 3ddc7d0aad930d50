"""Every hypothesis property test draws the same examples on every run: the
profile loaded here derandomizes them, and the explicit ``@settings`` of each
test (its ``max_examples``, ``deadline``) inherit it."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
