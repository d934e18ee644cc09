"""Every name that `src/icnsim` defines has a reader in `src/`, or a stated
reason to stay.

A reader is a NAME token equal to the name anywhere in `src/icnsim` outside
the name's own definition and `__init__.py`, whose imports only re-export.
Comments and strings hold no NAME token, so a docstring or a comment that
names a function does not read it. Tests, demos and `perfbench/` do not
count: a name that only they read is code that no run and no command needs. Names are the top-level
functions, classes and constants of each module and the methods of each
class (dunder methods are called implicitly and are not checked).
"""

import ast
import tokenize
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "icnsim"

# name -> why it stays although nothing in src/ reads it
KEPT = {
    "__version__": "the package's version attribute, read by users and tools",
    "NetState.local_ilm": "perfbench/mesh.py registers through it",
    "next_hop_toward": "the perfbench tracer hooks it",
    "build_graph": "the public graph constructor that tests and demos build graphs with",
    "Edge": "the edge row of build_graph, the public graph constructor",
    "node_centrality": "the public centrality; a run computes the same ratio from degrees_of, "
                       "so that it holds no degree array per node",
    "dump_table": "two property tests compare resolver state in its format",
    "measure_distance": "ROADMAP item 8 (latency-aware host choice) reads it",
    "traces_to_csv": "ROADMAP item 4 (traces from the CLI) reads it",
    "load_model": "ROADMAP item 6 (one pipeline) reads kept models with it",
    "hierarchy_from_text": "ROADMAP item 6 (one pipeline) reads kept hierarchies with it",
    "save_dataset": "the only writer of the documented dataset format; the CI smoke step uses it",
    "forward_negative": "the public negative pass, the counterpart of forward_positive",
    "grad_congruity": "the public gradient of the blended objective, which acceptance "
                      "criterion 4 checks; train blends its stacked gradients with the same _blend",
}


def _definitions():
    """qualified name -> (bare name, file, first line, last line) for every
    top-level function, class and constant and every non-dunder method."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            span = (path.name, node.lineno, node.end_lineno)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found[node.name] = (node.name, *span)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        found[target.id] = (target.id, *span)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        found[f"{node.name}.{item.name}"] = (
                            item.name, path.name, item.lineno, item.end_lineno
                        )
    return found


def _mentions():
    """NAME token -> [(file, line)] over src/icnsim outside __init__.py."""
    where = defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        with tokenize.open(path) as f:
            for tok in tokenize.generate_tokens(f.readline):
                if tok.type == tokenize.NAME:
                    where[tok.string].append((path.name, tok.start[0]))
    return where


DEFINITIONS = _definitions()
MENTIONS = _mentions()


def _readers(qualified):
    name, path, first, last = DEFINITIONS[qualified]
    return [
        (p, line) for p, line in MENTIONS[name]
        if not (p == path and first <= line <= last)
    ]


def test_every_name_has_a_reader_in_src_or_a_reason_to_stay():
    unread = [q for q in DEFINITIONS if q not in KEPT and not _readers(q)]
    assert unread == [], f"no reader in src/ and no entry in KEPT: {unread}"


def test_every_kept_name_exists_and_still_has_no_reader():
    assert sorted(set(KEPT) - set(DEFINITIONS)) == []
    read = {q: _readers(q) for q in KEPT if _readers(q)}
    assert read == {}, f"these have readers now; drop them from KEPT: {read}"
