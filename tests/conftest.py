from hypothesis import settings

# No per-example deadline: example times swing with the host's load.  Each test sets its max_examples.
settings.register_profile("gateport", deadline=None)
settings.load_profile("gateport")
