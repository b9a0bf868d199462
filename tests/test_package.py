import re
from pathlib import Path

import localgrad


def test_exports_resolve_once_and_star_import():
    names = localgrad.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(localgrad, name)] == []
    namespace = {}
    exec("from localgrad import *", namespace)  # raises on a stale export
    assert set(names) <= set(namespace)


def test_readme_library_example_runs(capsys):
    # the README's Library section is the package's usage example; a renamed
    # or removed public name must fail here, not in a reader's session
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", library, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
