"""Campaign reports against goldens recorded before replays resumed from
prefix snapshots (``tests/golden/generate_campaigns.py``).

Every campaign must give byte-identical reports — findings and shrunk
schedules included — with one worker and cache off, and with two
workers sharing a disk cache, cold and then warm (every cell cached: no
leader runs).
"""

import pytest

from repro.cache import CompileCache

from helpers import GOLDEN_DIR, golden_generator

gen = golden_generator("generate_campaigns")


def _golden(name: str) -> str:
    with open(f"{GOLDEN_DIR}/{name}") as handle:
        return handle.read()


@pytest.mark.parametrize("name", sorted(gen.CAMPAIGNS))
def test_campaign_matches_golden_serially(name):
    assert gen.render(gen.CAMPAIGNS[name](1, False)) == _golden(name)


@pytest.mark.parametrize("name", sorted(gen.CAMPAIGNS))
def test_campaign_matches_golden_with_two_workers(name, tmp_path):
    cold = CompileCache(str(tmp_path))
    assert gen.render(gen.CAMPAIGNS[name](2, cold)) == _golden(name)
    warm = CompileCache(str(tmp_path))
    assert gen.render(gen.CAMPAIGNS[name](2, warm)) == _golden(name)
    assert warm.stores == 0


def test_mutant_golden_has_shrunk_findings():
    """The mutant fixture really pins shrinking: multi-point failing
    schedules shrunk to shorter ones."""
    import json

    report = json.loads(_golden("campaign_mutant.json"))
    cells = [cell for pair in report["pairs"] for cell in pair["cells"]]
    shrunk = [cell for cell in cells if cell.get("shrunk")]
    assert report["findings"] > 0
    assert any(len(cell["shrunk"]) < len(cell["schedule"]) for cell in shrunk)
