from hypothesis import settings

# one profile for every property test: no per-example deadline, since a slow
# stretch of a shared machine can stall one example for seconds
settings.register_profile("kpcaig", deadline=None)
settings.load_profile("kpcaig")
