"""Bit-identity as a standing check: `scripts/identity_digest.py` against the
digest committed in tests/golden/identity_digest.json.

The digest covers short training runs of the four configs and the outputs of
`cavlab eval --dump-adjacency` and `cavlab baseline`. Its bits depend on the
numpy and BLAS build as well as on the code, so the golden file records one
digest per fingerprint of the numerics; on a machine whose fingerprint it
does not hold the test skips. A change that moves bits on purpose
regenerates the file:

    PYTHONPATH=src python scripts/identity_digest.py --golden tests/golden/identity_digest.json
"""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "identity_digest.json"


def _script():
    spec = importlib.util.spec_from_file_location(
        "identity_digest", ROOT / "scripts" / "identity_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _leaves(tree, prefix=()):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, prefix + (key,))
        else:
            yield "/".join(prefix + (key,)), value


def test_identity_digest_matches_the_golden_file():
    script = _script()
    recorded = json.loads(GOLDEN.read_text())
    here = script.fingerprint()
    if here not in recorded:
        pytest.skip(f"no golden digest for this machine's numerics ({here}); the file "
                    f"holds {sorted(recorded)}")
    got, want = dict(_leaves(script.digest())), dict(_leaves(recorded[here]))
    moved = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    assert not moved, f"bits moved in {len(moved)} digest entries: {moved}"
