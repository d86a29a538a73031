"""Golden outputs: the CLI JSON of the derivation and the tables, field for field.

The files under ``tests/golden/`` are the ``--format json`` output of each
command below: the derivation and table files were frozen before the
engine's search was restructured, the sieve, Ramanujan and default
zero-check files before the sieve layer was, and the partial-band and
vacuous-band zero checks before the kernel-weight check moved from a
per-zero loop to two endpoint evaluations.  Any change to a printed constant, threshold,
shift, error value or verdict shows up here as a mismatch; a deliberate
change must regenerate the file and be called out as a behaviour change.
The sha256 of a prime-table cache file is frozen too, because caches written
by earlier versions must keep loading without a rebuild.
"""

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from primebounds import zeros
from primebounds.cli import EXIT_PASS, cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "derive_strong_3e12.json": ["derive", "--T", "3e12"],
    "derive_strong_1e15.json": ["derive", "--T", "1e15"],
    "derive_weak_a1.json": ["derive", "--variant", "weak", "--a", "1"],
    "tables_1_2.json": ["tables", "1", "2", "--compare-published"],
    "verify_primes_2e5.json": ["verify-primes", "--limit", "200000"],
    "counterexample_1e7.json": ["ramanujan", "--counterexample", "10000000"],
    "ramanujan_list.json": ["ramanujan", "--list"],
    "zeros_check.json": ["zeros", "check"],
    "zeros_check_partial_band.json": ["zeros", "check", "--kernel-c", "3", "--kernel-eps", "0.1", "--t2", "100"],
    "zeros_check_vacuous_band.json": ["zeros", "check", "--kernel-c", "3", "--kernel-eps", "0.25"],
}
# the zero check prints the path it read; the frozen file names it by role
BUNDLED = "<bundled>"


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
    for doc in got:
        if doc.get("file") == zeros.bundled_zeros_path():
            doc["file"] = BUNDLED
    want = json_documents((GOLDEN / name).read_text())
    assert len(got) == len(want)
    got_fields, want_fields = list(leaves(got)), list(leaves(want))
    assert [p for p, _ in got_fields] == [p for p, _ in want_fields]
    for (path, value), (_, expected) in zip(got_fields, want_fields):
        # exact: floats round-trip through JSON, so equal means bit-identical
        assert type(value) is type(expected) and value == expected, path


def test_cache_file_bytes_match_golden(tmp_path):
    want, name = (GOLDEN / "cache_1e5.sha256").read_text().split()
    args = ["--cache-dir", str(tmp_path), "cache", "build", "--limit", "100000"]
    res = CliRunner().invoke(cli, args)
    assert res.exit_code == EXIT_PASS, res.output
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want
