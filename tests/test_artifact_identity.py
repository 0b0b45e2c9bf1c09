"""scripts/artifact_identity.py on stub checkouts whose ``nld.cli.main`` is a
few lines, so no real op runs."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "artifact_identity.py"

_spec = importlib.util.spec_from_file_location("artifact_identity", SCRIPT)
artifact_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_identity)


def stub_checkout(root: Path, main_body: str) -> Path:
    """A checkout whose ``nld.cli.main(argv)`` runs ``main_body``."""
    package = root / "src" / "nld"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("def main(argv):\n" + main_body)
    return root


RAISES_ON_BOOM = '    if argv[0] == "boom":\n        raise ValueError("bad op")\n    return 0\n'


def test_an_op_that_raises_is_that_ops_outcome(tmp_path):
    checkout = stub_checkout(tmp_path / "stub", RAISES_ON_BOOM)
    ops = [(["ok"], "first"), (["boom"], "second"), (["ok"], "third")]
    outcomes = artifact_identity.run_ops(checkout, ops, tmp_path / "out", tmp_path / "ops.json")
    assert outcomes == [0, "ValueError: bad op", 0]


def test_an_op_that_raises_on_one_side_differs(tmp_path, capsys):
    parent = stub_checkout(tmp_path / "parent", RAISES_ON_BOOM)
    change = stub_checkout(tmp_path / "change", "    return 0\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({}))
    argv = [str(parent), str(change), "--extra", "ok", str(config), "--extra", "boom", str(config)]
    assert artifact_identity.main(argv) == 1
    out = capsys.readouterr().out
    assert "2 ops, 0 artifacts compared, 0 differ" in out
    assert "EXIT CODE DIFFERS: extra1-boom  (parent 'ValueError: bad op', change 0)" in out
    assert "extra0-ok" not in out


WRITES_AN_ARTIFACT = (
    "    from pathlib import Path\n"
    "    out = Path(argv[-1])\n"
    "    out.mkdir(parents=True)\n"
    '    (out / "extra.txt").write_text("written")\n'
    "    return 0\n"
)


def test_an_artifact_on_one_side_only_names_that_side(tmp_path, capsys):
    parent = stub_checkout(tmp_path / "parent", "    return 0\n")
    change = stub_checkout(tmp_path / "change", WRITES_AN_ARTIFACT)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({}))
    argv = [str(parent), str(change), "--extra", "ok", str(config)]
    assert artifact_identity.main(argv) == 1
    out = capsys.readouterr().out
    assert "1 ops, 0 artifacts compared, 1 differ" in out
    assert "ONLY IN CHANGE: extra0-ok/extra.txt" in out
    assert "DIFFERS" not in out
