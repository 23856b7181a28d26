import re
import shlex
from pathlib import Path

from wva_sense.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_library_use_snippet_runs(monkeypatch, capsys):
    # The README's library example runs as written, from the repository root,
    # so a public name it shows cannot be removed without this failing.
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 13  # one line per t1 in bench.json


def test_quick_start_commands_run(tmp_path, monkeypatch):
    # Every `wva-sense ...` line of the README's quick-start block runs, in
    # order, through the CLI and exits 0, so a command that drifts from the
    # CLI fails here. Outputs go to a temporary directory whose configs/ is
    # the repository's.
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("wva-sense ")]
    assert commands
    (tmp_path / "configs").symlink_to(ROOT / "configs")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
