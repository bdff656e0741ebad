import os

from hypothesis import settings

# `ci` is the default.  HYPOTHESIS_PROFILE=deep raises max_examples tenfold,
# and the deep CI step runs the tests marked `deep` under it (`pytest -m deep`);
# the brute-force and minor properties of test_oracle.py and the
# polymorphism-scan property of test_relations.py scale their own example
# counts by it, and the array-reference property of test_definitions.py, the
# image property of test_relations.py, the big-M property of
# test_reductions.py and the token properties of test_fileio.py take the
# profile's count as it is.
settings.register_profile("ci", derandomize=True, max_examples=100)
settings.register_profile("deep", settings.get_profile("ci"), max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))
