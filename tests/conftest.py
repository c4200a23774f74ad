from hypothesis import settings

# derandomized, so every run draws the same examples; no deadline, so a slow
# machine cannot fail a property; no example database left on disk
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
