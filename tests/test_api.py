import re
from pathlib import Path

import uneval

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def test_public_api_covers_benchmark_calls():
    used = set(re.findall(r"\buneval\.([A-Za-z_]\w*)", WORKLOADS.read_text()))
    assert used, "no uneval.<name> calls found in bench/workloads.py"
    missing = (used | {"main"}) - set(uneval.__all__)
    assert not missing, sorted(missing)
    assert all(hasattr(uneval, name) for name in uneval.__all__)
