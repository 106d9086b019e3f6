"""Every invocation in tests/golden.json gives its recorded exit code, stdout,
stderr and output files, byte for byte, and leaves the recorded directories
(scripts/record_golden.py records them)."""
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "record_golden", ROOT / "scripts" / "record_golden.py")
record_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_golden)


def _mismatches(want: dict, got: dict) -> list[str]:
    """What differs between a recorded invocation and a run of it."""
    found = [f"{key}: recorded {want[key]}, got {got[key]}"
             for key in ("exit", "stdout", "stderr", "directories")
             if got[key] != want[key]]
    for name in sorted(want["outputs"].keys() | got["outputs"].keys()):
        recorded, written = want["outputs"].get(name), got["outputs"].get(name)
        if recorded != written:
            found.append(f"{name}: recorded {recorded or 'no file'}, "
                         f"got {written or 'no file'}")
    return found


def test_every_invocation_matches_the_manifest(tmp_path):
    manifest = json.loads(record_golden.MANIFEST.read_text())
    problems = []
    for invocation in manifest["invocations"]:
        got = record_golden.run(invocation, tmp_path)
        problems += [f"{invocation['name']} ({' '.join(invocation['argv'])}): {problem}"
                     for problem in _mismatches(invocation, got)]
    assert not problems, "\n".join(
        problems + [f"recorded with numpy {manifest['versions']['numpy']}, "
                    f"running numpy {record_golden.versions()['numpy']}"])
