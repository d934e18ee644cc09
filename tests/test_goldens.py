"""The golden manifest: one test per line of tests/goldens/manifest.txt, and
a self-test of tests/regen_goldens.py on a copy of part of it."""

import os
import shutil

import pytest

import regen_goldens
from regen_goldens import GOLDENS, digest, read_manifest

GOLDEN_LINES = [g for _, g in read_manifest()[1]]


def test_the_manifest_pins_39_artifacts():
    assert len(GOLDEN_LINES) == 39
    assert len({g.id for g in GOLDEN_LINES}) == len(GOLDEN_LINES)


@pytest.mark.parametrize("golden", GOLDEN_LINES, ids=[g.id for g in GOLDEN_LINES])
def test_artifact_matches_the_manifest(golden):
    assert digest(golden) == golden.sha256, (
        f"host flag {golden.host}; re-record on purpose with tests/regen_goldens.py"
    )


# the cheapest lines: topologies and hierarchies of two configs
SELF_TEST_CONFIGS = ("embb-512.cfg", "mmtc-1k.cfg")


@pytest.fixture
def manifest_copy(tmp_path, monkeypatch):
    """A manifest of the SELF_TEST_CONFIGS lines, with those configs beside it,
    that regen_goldens reads and writes in place of the real one."""
    lines, goldens = read_manifest()
    kept = [lines[i] for i, g in goldens if g.config in SELF_TEST_CONFIGS]
    assert len(kept) == 3
    for name in SELF_TEST_CONFIGS:
        shutil.copy(os.path.join(GOLDENS, name), tmp_path / name)
    path = tmp_path / "manifest.txt"
    path.write_text("# a copy\n" + "\n".join(kept) + "\n")
    monkeypatch.setattr(regen_goldens, "GOLDENS", str(tmp_path))
    monkeypatch.setattr(regen_goldens, "MANIFEST", str(path))
    return path


def test_one_changed_byte_fails_exactly_its_line(manifest_copy, monkeypatch, capsys):
    real = regen_goldens.artifacts

    def one_byte_off(command, config, seed):
        got = dict(real(command, config, seed))
        if command == "containerize":
            text = got["hierarchy.txt"]
            got["hierarchy.txt"] = text[:40] + bytes([text[40] ^ 1]) + text[41:]
        return got

    assert regen_goldens.main(["--check"]) == 0
    before = manifest_copy.read_text()
    monkeypatch.setattr(regen_goldens, "artifacts", one_byte_off)
    capsys.readouterr()
    assert regen_goldens.main(["--check"]) == 1
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and printed[-1] == "1 of 3 manifest lines differ"
    assert printed[0].startswith("containerize embb-512.cfg - hierarchy.txt [host flag: -]: ")
    assert manifest_copy.read_text() == before

    # re-recording rewrites that one hash, which then checks clean
    assert regen_goldens.main([]) == 0
    old, new = capsys.readouterr().out.splitlines()[0].rsplit(": ", 1)[1].split(" -> ")
    after = manifest_copy.read_text()
    assert after == before.replace(old, new) and old != new
    assert regen_goldens.main(["--check"]) == 0
