import re
from pathlib import Path

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
