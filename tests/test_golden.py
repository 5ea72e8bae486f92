"""The derivation artefacts against frozen reference copies.

These pin the exact rational output of the pipeline (and its formatting);
any intentional change to the derivation or report layout must regenerate
the files under ``tests/golden``.
"""

import os

import pytest

from msbc import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture(scope="module")
def fresh_derive(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_run")
    assert cli.main(["derive", "--order", "3", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", ["derivation_report.txt", "robin_bc.txt",
                                  "transform_eps1.txt", "evolution_eps1.txt",
                                  "resonance_table.txt",
                                  "boundary_constraint.txt",
                                  "reverted_boundary.txt"])
def test_derivation_artifact_matches_golden(fresh_derive, name):
    with open(os.path.join(GOLDEN, name)) as fh:
        expected = fh.read()
    with open(fresh_derive / name) as fh:
        assert fh.read() == expected
