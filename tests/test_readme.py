"""README.md's command synopsis and override example match the program."""

import re
from pathlib import Path

import isrsim.cli as cli
from isrsim.config import load_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _fenced_block(heading: str, lang: str = "") -> str:
    """The first fenced block of the given language under a '## ' heading."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_synopsis_lists_each_subcommands_options():
    documented = {}
    for line in _fenced_block("Command line").splitlines():
        _, command, *options = line.split()
        documented[command] = sorted(re.findall(r"\[(--[\w-]+)", " ".join(options)))
    [sub] = [a for a in cli._build_parser()._actions if a.dest == "command"]
    parsed = {
        name: sorted(
            option
            for action in parser._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        )
        for name, parser in sub.choices.items()
    }
    assert documented == parsed


def test_override_example_loads(tmp_path):
    path = tmp_path / "override.yaml"
    path.write_text(_fenced_block("Configuration", "yaml"))
    cfg = load_config(str(path))
    assert cfg.section("scan")["statistics_only"] is True
    # The example doubles the squeezing coupling, in the defaults' unit.
    default = load_config().section("pump")["mu_squeeze"]
    assert cfg.section("pump")["mu_squeeze"] == 2 * default
