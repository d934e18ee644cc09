"""Check or re-record the golden manifest, tests/goldens/manifest.txt.

    PYTHONPATH=src python tests/regen_goldens.py          # rewrite the hashes that changed
    PYTHONPATH=src python tests/regen_goldens.py --check  # write nothing; exit 1 on a mismatch

Each manifest line names a command, a config file beside the manifest, a
seed, an artifact and its SHA-256 (see the manifest's header). The script
recomputes every artifact in process and prints one `old -> new` line per
hash that differs, with the line's host flag, so a change that moves bytes
on purpose pastes that output into CHANGES.md. tests/test_goldens.py checks
one test per line through the same functions.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys
import tempfile
from typing import NamedTuple

from icnsim import cli, congruity

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens")
MANIFEST = os.path.join(GOLDENS, "manifest.txt")


class Golden(NamedTuple):
    command: str
    config: str
    seed: str
    artifact: str
    sha256: str
    host: str

    @property
    def id(self) -> str:
        return ":".join(self[:4])


def parse_line(raw: str):
    """The Golden on one manifest line, or None for a comment or blank line."""
    if not raw.strip() or raw.lstrip().startswith("#"):
        return None
    fields = raw.split()
    if len(fields) != len(Golden._fields) or fields[5] not in ("host", "-"):
        raise ValueError(f"not a manifest line: {raw!r}")
    return Golden(*fields)


def read_manifest() -> tuple:
    """The manifest's lines, and the (line index, Golden) of each golden line."""
    with open(MANIFEST, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines, [(i, g) for i, g in enumerate(map(parse_line, lines)) if g is not None]


@functools.lru_cache(maxsize=None)
def artifacts(command: str, config: str, seed: str) -> dict:
    """{artifact: bytes} of one command on the config file `config`: the
    files the command returns and, when it trains the learner exactly once,
    `model` and `loss_history` of that training."""
    argv = ["--config", config] + ([] if seed == "-" else ["--seed", seed])
    trained = []
    real = congruity.train

    def recording(dp, dg, h, arch, *args, **kwargs):
        result = real(dp, dg, h, arch, *args, **kwargs)
        trained.append((result, h))
        return result

    congruity.train = recording
    try:
        with tempfile.TemporaryDirectory() as tmp:
            if command == "containerize":
                topo = os.path.join(tmp, "topology.txt")
                with open(topo, "w", encoding="utf-8") as fh:
                    fh.write(cli.outputs(["gen-topo", *argv])[1]["topology.txt"])
                argv += ["--topo", topo]
                trained.clear()  # a learner gen-topo trained is not containerize's
            _, files, _ = cli.outputs([command, *argv])
    finally:
        congruity.train = real
    got = {name: text.encode() for name, text in files.items()}
    if len(trained) == 1:
        [(result, h)] = trained
        got["model"] = congruity.model_to_text(result.theta_star, h).encode()
        got["loss_history"] = repr(result.loss_history).encode()
    return got


def digest(golden: Golden) -> str:
    """The SHA-256 the line's artifact has now, or "missing"."""
    got = artifacts(golden.command, os.path.join(GOLDENS, golden.config), golden.seed)
    data = got.get(golden.artifact)
    return "missing" if data is None else hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="write nothing and exit 1 if any hash differs")
    args = parser.parse_args(argv)
    lines, goldens = read_manifest()
    changed = missing = 0
    for i, g in goldens:
        new = digest(g)
        if new != g.sha256:
            print(f"{' '.join(g[:4])} [host flag: {g.host}]: {g.sha256} -> {new}")
            changed += 1
            missing += new == "missing"
            lines[i] = lines[i].replace(g.sha256, new)
    verb = "differ" if args.check else "changed"
    print(f"{changed} of {len(goldens)} manifest lines {verb}")
    if changed and not (args.check or missing):
        with open(MANIFEST, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return 1 if missing or (changed and args.check) else 0


if __name__ == "__main__":
    sys.exit(main())
