"""A performance change lands with a before/after BENCH file at the root
of the repository, naming the layer it moved (ROADMAP aim 1)."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUIRED_KEYS = ("command", "host", "layer_moved", "untraced_seed_42",
                 "untraced_seed_7_held_out")


def test_every_bench_file_records_a_before_and_after():
    paths = [p for p in ROOT.glob("BENCH_*.json")
             if re.fullmatch(r"BENCH_\d+\.json", p.name)]
    assert paths
    for path in paths:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(record, dict), path.name
        missing = [key for key in REQUIRED_KEYS if key not in record]
        assert not missing, f"{path.name} lacks {missing}"
