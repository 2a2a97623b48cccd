"""Set-up probe: import mrenew in a fresh interpreter, warm it up, say "ready".

run.py times this from process start to the "ready" line.  The warm-up runs
one small request of each kind (program.WARM_UP).  After that line, the
probe prints the median time of `calibration` here, the speed this
interpreter got.
"""

import statistics

from program import calibration, load_cli, warm_up

warm_up(load_cli())
print("ready", flush=True)
print(statistics.median(calibration() for _ in range(9)))
