"""Built-in configurations for every suite.

These are the configs the CLI runs when no --config file is given. They live
as package data in ``wcsg/configs/<suite>.json``, one file per suite, keyed
by the file stem. All values are plain JSON data, so a report's config echo
is exactly what a user could feed back in.
"""

import json
from importlib import resources

_CONFIG_DIR = resources.files(__package__) / "configs"

DEFAULT_CONFIGS = {
    name.removesuffix(".json"): json.loads((_CONFIG_DIR / name).read_text())
    for name in sorted(entry.name for entry in _CONFIG_DIR.iterdir())
    if name.endswith(".json")
}
