"""Each command-line verb imports only the layers it runs.

Every check starts a fresh interpreter with ``-X importtime``, which lists
each module the first time it is imported, so the listing is exactly what
``import kummer`` or ``python -m kummer <verb>`` loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from kummer import FgAbGroup, jsonio, split_sequence
from kummer.cli import _DEMO_NAMES
from kummer.demos import DEMOS

SRC = Path(__file__).resolve().parents[1] / "src"

CONSTRUCTIONS = {"towers", "colimits", "cohomology", "demos", "fixtures"}


def loaded_layers(argv: list[str], stdin: str = "") -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], input=stdin,
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stdout
    names = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    assert "kummer" in names
    return {name.split(".", 1)[1] for name in names if name.startswith("kummer.")}


def test_importing_the_package_loads_no_layer():
    assert loaded_layers(["-c", "import kummer"]) == set()


def _seq_doc() -> str:
    seq = split_sequence(FgAbGroup.cyclic(2), FgAbGroup.cyclic(3))
    return jsonio.dumps(jsonio.document(jsonio.encode_seq(seq)))


# verb -> (document, layers it runs, layers it must not load)
VERBS = {
    "snf": ('{"rows": 2, "cols": 2, "data": [2, 4, 6, 8]}', {"matrices"},
            CONSTRUCTIONS | {"groups"}),
    "group": ('{"generators": 2, "relations": [[2, 0], [0, 4]]}', {"groups"},
              CONSTRUCTIONS),
    "seq-check": (_seq_doc(), {"sequences"}, CONSTRUCTIONS),
    "counterexample": ("", {"demos", "colimits"}, {"cohomology", "fixtures"}),
    "demo counterexample": ("", {"demos", "colimits"}, {"cohomology", "fixtures"}),
    "demo chris": ("", {"demos", "cohomology"}, {"colimits", "towers", "fixtures"}),
    "demo main-lemma": ("", {"demos", "towers", "fixtures"}, {"colimits", "cohomology"}),
    "demo dual-lemma": ("", {"demos", "towers", "fixtures"}, {"colimits", "cohomology"}),
    # case 2 needs no hand-built evidence, so no fixtures
    "limit-split": ('{"family": "stabilizing", "case": 2}', {"colimits"},
                    {"fixtures", "cohomology", "demos"}),
}


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_a_verb_loads_only_its_layers(verb):
    doc, runs, unused = VERBS[verb]
    layers = loaded_layers(["-m", "kummer", *verb.split()], doc)
    assert {"cli", "jsonio"} | runs <= layers
    assert layers & unused == set()


def test_the_parser_lists_every_demo():
    assert _DEMO_NAMES == tuple(sorted(DEMOS))
