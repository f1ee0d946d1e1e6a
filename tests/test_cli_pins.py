"""Pinned ``bounds`` and ``gamma`` output: the exact text each command prints
for a fixed matrix of traces x command-line options x policies.

Both commands replay with ``final_drain=False`` and report on the pending
set that is left, so a change to how the CLI builds its scenario, or to the
bound and gamma arithmetic, that keeps every value here keeps what they
print, byte for byte.

The values live in ``cli_pins.json``. After an intended change to either
command's output, record the values of the current code with

    PYTHONPATH=src python tests/test_cli_pins.py > tests/cli_pins.json
"""

import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from mempoolsim import XT6_DESK, AttackPlan, write_trace
from mempoolsim.cli import main

COMMANDS = ("bounds", "gamma")
POLICIES = ("baseline", "cp", "map")


def _random_adversary():
    return AttackPlan("random_adversary", {"steps": 2000, "seed": 4}).events()


def _xt6_desk():
    return AttackPlan("xt6", dict(XT6_DESK)).events()


# name -> (() -> events, extra command-line options); a limit of 4 cuts
# xt6's chains to 4 txs each, so that case's pool ends below capacity
CASES = {
    "xt6_desk": (_xt6_desk, ["--capacity", "192"]),
    "xt6_desk_limit4": (_xt6_desk, ["--capacity", "192", "--per-sender-limit", "4"]),
    "random_adversary_s4": (_random_adversary, ["--capacity", "16"]),
}


def case_outputs(case: str, trace_path: Path) -> dict:
    """{"command/policy": stdout} of one case, its trace written to ``trace_path``."""
    make, options = CASES[case]
    write_trace(trace_path, make())
    out = {}
    for command in COMMANDS:
        for policy in POLICIES:
            stdout = io.StringIO()
            with redirect_stdout(stdout):
                code = main([command, str(trace_path), "--policy", policy, *options])
            assert code == 0, (case, command, policy)
            out[f"{command}/{policy}"] = stdout.getvalue()
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_bounds_and_gamma_output_is_pinned(case, tmp_path):
    # read here, not at import, so the recording command below can write the file
    pins = json.loads((Path(__file__).parent / "cli_pins.json").read_text())
    assert case_outputs(case, tmp_path / f"{case}.jsonl") == pins[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pins = {case: case_outputs(case, Path(tmp) / f"{case}.jsonl") for case in sorted(CASES)}
    print(json.dumps(pins, indent=1, sort_keys=True))
