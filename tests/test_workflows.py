"""The CI workflow files must at least parse: a YAML error disables CI."""

from __future__ import annotations

from pathlib import Path

import pytest

WORKFLOWS = sorted(
    (Path(__file__).resolve().parents[1] / ".github" / "workflows")
    .glob("*.yml"))


def test_workflow_files_exist():
    assert WORKFLOWS


@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda path: path.name)
def test_workflow_parses_as_yaml(path):
    yaml = pytest.importorskip("yaml")
    document = yaml.safe_load(path.read_text("utf-8"))
    assert isinstance(document, dict) and document.get("jobs"), path.name
    for job_name, job in document["jobs"].items():
        for step in job.get("steps", []):
            assert isinstance(step, dict), f"{job_name}: {step!r}"
