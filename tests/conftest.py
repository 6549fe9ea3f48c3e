import os
import sys

import hypothesis

hypothesis.settings.register_profile(
    "ci", deadline=None, derandomize=True, max_examples=50
)
hypothesis.settings.load_profile("ci")

# test-only oracles (kou_exact, oracles) live next to the tests
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
