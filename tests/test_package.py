import re
import shlex
from pathlib import Path

import localgrad
from localgrad import cli


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


def test_readme_cli_examples_parse():
    # the README's CLI block is the commands' usage example; a renamed or
    # removed flag must fail here. The commands are parsed, not run.
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    cli_section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```sh\n(.*?)```", cli_section, re.S)
    assert len(blocks) == 1
    commands = [line for line in blocks[0].replace("\\\n", " ").splitlines() if line.startswith("localgrad ")]
    assert len(commands) == 8
    parser = cli.build_parser()
    for command in commands:
        words = shlex.split(command)
        assert parser.parse_args(words[1:]).command == words[1]
