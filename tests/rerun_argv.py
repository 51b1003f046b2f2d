"""Print the arguments that rerun a rankshift output file from the config
embedded in it: the ``config`` key of a JSON output, or the ``# config:``
first line of a CSV output.

    rankshift $(python tests/rerun_argv.py out.csv) --out rerun.csv

The command comes first.  Every other key becomes its long option, with
underscores as dashes: True is a bare flag, None and False are left out,
and any other value is joined to its option as ``--key=value``, so a value
that begins with ``-`` (a letter named ``-a``) is read as the value.
"""

import json
import sys

CSV_PREFIX = "# config: "


def config_of(text):
    """The config embedded in the text of a JSON or CSV output."""
    if text.startswith(CSV_PREFIX):
        return json.loads(text.splitlines()[0][len(CSV_PREFIX):])
    return json.loads(text)["config"]


def argv_from_config(config):
    config = dict(config)
    argv = [config.pop("command")]
    for key, value in config.items():
        if value is None or value is False:
            continue
        option = "--" + key.replace("_", "-")
        argv.append(option if value is True else f"{option}={value}")
    return argv


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        print(*argv_from_config(config_of(fh.read())))
