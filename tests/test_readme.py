"""The README's ``python`` blocks run, in order, in one namespace, as a
reader would paste them, and its API list names each public name once."""
import re
from pathlib import Path

import cloudinv

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_api_lists_every_public_name_once():
    section = README.read_text(encoding="utf-8").split("\n## API\n")[1].split("\n## ")[0]
    listed = re.findall(r"^- `(\w+)`:", section, flags=re.M)
    assert len(listed) == len(set(listed))
    assert set(listed) == set(cloudinv.__all__) - {"__version__"}
