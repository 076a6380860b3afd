import sys
from pathlib import Path

from hypothesis import settings

# Make the sibling oracle helpers importable regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).resolve().parent))

# Tier-1 draws the same examples on every run, so the lines it covers do not
# change from run to run.  `--hypothesis-profile=explore` draws new examples
# (with `--hypothesis-seed=N` a run repeats).  Neither profile changes a
# test's own settings, such as its max_examples.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None)
settings.load_profile("tier1")
