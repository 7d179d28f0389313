import json
from pathlib import Path

from slicestar.suites import SuiteConfig, run_suite

GOLDEN = Path(__file__).parent / "data" / "verify-seed1-samples200.json"


def test_verify_report_matches_golden_byte_for_byte():
    # the output of `slicestar verify --suite all --seed 1 --samples 200`;
    # a refactor must leave it unchanged, a change of numerics must say so
    report = run_suite(SuiteConfig(seed=1, samples=200, suite="all"))
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert text == GOLDEN.read_text()
