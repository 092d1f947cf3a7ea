"""The README's library quick start runs and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    text = README.read_text()
    section = text[text.index("## Quick start (library)"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_quick_start(capsys):
    ns = {}
    exec(compile(quick_start_block(), str(README), "exec"), ns)
    out = capsys.readouterr().out
    fam, mhs, bundle = ns["fam"], ns["mhs"], ns["bundle"]
    assert len(fam) == 5 and fam.logs == ((2, 7, 12),) and fam.periods == (5,)
    assert (mhs.size, mhs.tolerance) == (5, 4)
    assert (bundle.tolerance, bundle.schemes[0].bandwidth) == (4, 9)
    assert ns["multi"].tolerance == 6
    assert ns["report"].survived == 1.0
    # each one-line print shows the value its comment starts with
    for line in quick_start_block().splitlines():
        if line.startswith("print(") and "#" in line and "blocks()" not in line:
            shown = line.split("#", 1)[1].strip().split(":")[0]
            assert shown + "\n" in out, line
