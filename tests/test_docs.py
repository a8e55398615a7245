"""The README's tables match the code they describe: the settings table
lists every ``RunConfig`` key, and the stage table each cached stage as
``pipeline._STAGES`` declares it."""

import dataclasses
import typing
from pathlib import Path

from meltcal import pipeline
from meltcal.pipeline import RunConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def table(header: str) -> list[list[str]]:
    """The body rows of the README table whose header row is ``header``,
    each a list of its stripped cells."""
    lines = README.read_text(encoding="utf-8").splitlines()
    rows = []
    for line in lines[lines.index(header) + 2:]:  # past the header and its rule
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def leaves(cls, prefix=""):
    """Every settable key of config dataclass ``cls``, a section's keys
    dotted after its name, as the config reader reads them."""
    for key, hint in typing.get_type_hints(cls).items():
        hint = next((h for h in typing.get_args(hint) if h is not type(None)), hint)
        if dataclasses.is_dataclass(hint):
            yield from leaves(hint, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_readme_lists_every_setting():
    """The settings table has one row per dotted leaf of RunConfig, in
    field order, and there are 12 of them."""
    keys = [row[0].strip("`") for row in table("| key | JSON type | default |")]
    assert keys == list(leaves(RunConfig))
    assert len(keys) == 12


def test_readme_lists_every_stage():
    """The stage table has one row per cached stage, in run order, with the
    stage's upstream and artifacts; its reads column names each module,
    setting and ``model`` the stage reads."""
    rows = table("| stage | reads | upstream | artifacts |")
    assert [row[0] for row in rows] == list(pipeline._STAGES)
    named = {*RunConfig().to_dict(), "model"}
    for (name, reads, upstream, artifacts), stage in zip(rows, pipeline._STAGES.values()):
        assert upstream == (", ".join(stage.upstream) or "—"), name
        assert artifacts == ", ".join(f"`{a}`" for a in stage.artifacts), name
        for key in stage.reads:
            if key.endswith(".py") or key in named:
                assert f"`{key}`" in reads, (name, key)
