"""Time one set-up of the program in a fresh interpreter and print it.

Set-up is importing gamepop, parsing the run description given as the
first argument (JSON) and building its game. The benchmark runs this
script several times per run and reports the median as ``setup_s``.
"""

import time

start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from gamepop.config import parse_config  # noqa: E402
from gamepop.games import make_game  # noqa: E402

config = parse_config(json.loads(sys.argv[1]))
make_game(config.game["name"], config.game.get("params", {}))
print(time.perf_counter() - start)
