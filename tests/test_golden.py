"""Golden outputs: the CLI JSON of the derivation and the tables, field for field.

The files under ``tests/golden/`` are the ``--format json`` output of each
command below: the derivation and table files were frozen before the
engine's search was restructured, the sieve, Ramanujan and default
zero-check files before the sieve layer was, the counterexample counts at
2e8 and at the last counterexample before Lucy's recursion was cut at the
cube root, and the partial-band and
vacuous-band zero checks before the kernel-weight check moved from a
per-zero loop to two endpoint evaluations, and the 256-bit zero check before
the ordinate ingest and the zero sum moved to integer arithmetic.  Any
change to a printed constant, threshold, shift, error value or verdict shows
up here as a mismatch; a deliberate change must regenerate the file and be
called out as a behaviour change.
The sha256 of the exact prime tables to 1e5 is frozen too: the jumps, their
exponents and the four exact right-limit columns, whose theta and psi steps
are the 96-bit logs of the primes.  Every file here is read by a test.
"""

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from primebounds import primes, zeros
from primebounds.cli import EXIT_FAIL, EXIT_PASS, cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "derive_strong_3e12.json": ["derive", "--T", "3e12"],
    "derive_strong_1e15.json": ["derive", "--T", "1e15"],
    "derive_weak_a1.json": ["derive", "--variant", "weak", "--a", "1"],
    "tables_1_2.json": ["tables", "1", "2", "--compare-published"],
    "verify_primes_2e5.json": ["verify-primes", "--limit", "200000"],
    "counterexample_1e7.json": ["ramanujan", "--counterexample", "10000000"],
    "counterexample_2e8.json": ["ramanujan", "--counterexample", "200000000"],
    "counterexample_last.json": ["ramanujan", "--counterexample", "38358837682"],
    "ramanujan_list.json": ["ramanujan", "--list"],
    "zeros_check.json": ["zeros", "check"],
    "zeros_check_partial_band.json": ["zeros", "check", "--kernel-c", "3", "--kernel-eps", "0.1", "--t2", "100"],
    "zeros_check_vacuous_band.json": ["zeros", "check", "--kernel-c", "3", "--kernel-eps", "0.25"],
    "zeros_check_256_bits.json": ["--precision-bits", "256", "zeros", "check", "--t2", "4096"],
}
# the last counterexample to Ramanujan's inequality is a FAIL by design
EXIT_CODES = {"counterexample_last.json": EXIT_FAIL}
TABLES_DIGEST = "tables_1e5.sha256"
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
    assert res.exit_code == EXIT_CODES.get(name, EXIT_PASS), res.output
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


def tables_text(tables) -> str:
    """One line per jump: n, m and the pi, theta, psi and Pi right limits,
    each an exact integer over its kind's scale."""
    cols = [tables.jumps.tolist(), tables.jump_m.tolist(),
            *(tables.right[kind] for kind in ("pi", "theta", "psi", "Pi"))]
    return "".join(" ".join(map(str, row)) + "\n" for row in zip(*cols))


def test_tables_match_golden():
    want = (GOLDEN / TABLES_DIGEST).read_text().strip()
    text = tables_text(primes.build_tables(10 ** 5))
    assert hashlib.sha256(text.encode()).hexdigest() == want


def test_every_golden_file_is_read():
    # a retired golden file must go with the test that read it
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted([*CASES, TABLES_DIGEST])
