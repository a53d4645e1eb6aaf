"""Every CLI output on the fixtures of make_golden.py is byte-identical to
the hashes in golden.json (see make_golden.py for what each hash covers and
how to rewrite the file)."""

import json

import pytest

from make_golden import GOLDEN, commands, digest, write_fixtures

WANT = json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    write_fixtures(root)
    return root


def test_every_command_has_a_hash():
    assert sorted(WANT) == sorted(commands())


@pytest.mark.parametrize("name", sorted(commands()))
def test_output_matches_golden(fixtures, name):
    assert digest(commands()[name], fixtures) == WANT[name], name
