"""Settings shared by the test modules."""

import os

from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis caches the constants it reads from local source files in its
# storage directory; no directory can be made under the null device, so the
# cache, only a speed-up, is never written
set_hypothesis_home_dir(os.devnull)
