"""Regenerate the fault-injection campaign golden reports.

Run from the repository root::

    PYTHONPATH=src python tests/golden/generate_campaigns.py

Each fixture is the JSON report exactly as ``python -m repro inject ...
-o FILE`` writes it (``to_json()`` plus a newline), so CI can ``cmp``
a fresh ``inject --quick`` report against ``campaign_quick.json``:

* ``campaign_quick.json`` — ``inject --quick``;
* ``campaign_differential_quick.json`` — ``inject --differential --quick``;
* ``campaign_progress_quick.json`` — ``inject --progress --quick``;
* ``campaign_mutant.json`` — crc under ``wario`` with its first
  checkpoint dropped: a campaign with findings, whose shrunk schedules
  are pinned too.

``tests/test_campaign_golden.py`` reruns each campaign with one and two
workers and requires byte-identical reports.  The fixtures were recorded
before campaigns resumed replays from prefix snapshots; regenerate them
only for a deliberate change to planning, emulation or the report
schema.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from dataclasses import replace

from repro.core.pipeline import ENVIRONMENTS
from repro.faultinject import (
    CampaignConfig,
    quick_config,
    quick_differential_config,
    quick_progress_config,
    run_campaign,
    run_differential,
    run_progress_differential,
)

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))


def mutant_config(**overrides) -> CampaignConfig:
    env = replace(ENVIRONMENTS["wario"], name="wario+drop-checkpoint",
                  drop_checkpoint=0)
    return quick_config(benches=("crc",), envs=(env,), **overrides)


#: fixture file -> function(jobs, cache) returning the report
CAMPAIGNS = {
    "campaign_quick.json":
        lambda jobs, cache: run_campaign(
            quick_config(seed=0, jobs=jobs), cache=cache),
    "campaign_differential_quick.json":
        lambda jobs, cache: run_differential(
            quick_differential_config(seed=0, jobs=jobs), cache=cache),
    "campaign_progress_quick.json":
        lambda jobs, cache: run_progress_differential(
            quick_progress_config(), cache=cache),
    "campaign_mutant.json":
        lambda jobs, cache: run_campaign(mutant_config(jobs=jobs), cache=cache),
}


def render(report) -> str:
    """The report as ``inject -o FILE`` writes it."""
    return report.to_json() + "\n"


if __name__ == "__main__":
    for name, make in CAMPAIGNS.items():
        path = os.path.join(GOLDEN_DIR, name)
        with open(path, "w") as handle:
            handle.write(render(make(1, False)))
        print(f"wrote {path}")
