"""Golden outputs: the CLI JSON of the derivation and the tables, field for field.

The files under ``tests/golden/`` are the ``--format json`` output of each
command below, frozen before the engine's search was restructured.  Any
change to a printed constant, threshold, shift, error value or verdict shows
up here as a mismatch; a deliberate change must regenerate the file and be
called out as a behaviour change.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from primebounds.cli import EXIT_PASS, cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "derive_strong_3e12.json": ["derive", "--T", "3e12"],
    "derive_strong_1e15.json": ["derive", "--T", "1e15"],
    "derive_weak_a1.json": ["derive", "--variant", "weak", "--a", "1"],
    "tables_1_2.json": ["tables", "1", "2", "--compare-published"],
}


def json_documents(text: str) -> list:
    """Every JSON document in ``text``; ``tables 1 2`` prints one per table."""
    decoder = json.JSONDecoder()
    docs, pos = [], 0
    text = text.strip()
    while pos < len(text):
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)
        while pos < len(text) and text[pos].isspace():
            pos += 1
    return docs


def leaves(doc, path=""):
    """(path, value) for every scalar field, so a mismatch names its field."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from leaves(value, f"{path}.{key}")
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from leaves(value, f"{path}[{i}]")
    else:
        yield path, doc


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_json_matches_golden(name):
    res = CliRunner().invoke(cli, ["--format", "json"] + CASES[name])
    assert res.exit_code == EXIT_PASS, res.output
    got = json_documents(res.output)
    want = json_documents((GOLDEN / name).read_text())
    assert len(got) == len(want)
    got_fields, want_fields = list(leaves(got)), list(leaves(want))
    assert [p for p, _ in got_fields] == [p for p, _ in want_fields]
    for (path, value), (_, expected) in zip(got_fields, want_fields):
        # exact: floats round-trip through JSON, so equal means bit-identical
        assert type(value) is type(expected) and value == expected, path
