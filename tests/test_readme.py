"""The README's Python examples run against the current API, and its
lists of config keys and common flags are the program's."""

import pathlib
import re
from dataclasses import fields

import click

from agfem import cli
from agfem.experiments import ExperimentConfig

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        namespace = {}
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].converged


def test_readme_config_keys_are_the_config_fields():
    listed = re.search(r"Keys mirror the flag names\s*\((.*?)\)\.",
                       README.read_text(), re.S).group(1)
    assert sorted(re.findall(r"`(\w+)`", listed)) == \
        sorted(f.name for f in fields(ExperimentConfig))


def test_readme_common_flags_are_the_cli_flags():
    listed = re.search(r"Common flags: (.*?)\.\n", README.read_text(),
                       re.S).group(1)
    params = click.command()(cli._common_options(lambda **kw: None)).params
    assert sorted(re.findall(r"`(--[\w-]+)", listed)) == \
        sorted(opt for p in params for opt in p.opts)
