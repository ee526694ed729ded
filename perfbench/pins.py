"""Outputs the benchmark pins: a run whose outputs differ is a failed run.

``pins.json`` holds the study's 144 payload digests, the paper's class
counts and survival figures, the archive invariants that hold for every
seed, and the replay results at the paper's seed.
"""

import json
from pathlib import Path

PINS = json.loads((Path(__file__).with_name("pins.json")).read_text(encoding="utf-8"))
