from hypothesis import settings

# The example budget of the tests that set none (test_contract.py; every
# other property test sets its own).  Tier-1 runs "tier1"; CI runs the
# contract test again with ``--hypothesis-profile=contract``, which the
# hypothesis pytest plugin loads after this file.
settings.register_profile("tier1", max_examples=150)
settings.register_profile("contract", max_examples=1000)
settings.load_profile("tier1")
