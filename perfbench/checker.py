"""Check worker: read a workload name and outcomes as JSON on stdin, write
one verdict per outcome (checks.verdict) as a JSON list on stdout.

run.py starts these as fresh interpreters, so the Gaver-Stehfest rerun in
checks.check_inversion sees no cache the timed process filled.
"""

import json
import sys

import checks
from program import Outcome

job = json.load(sys.stdin)
json.dump([checks.verdict(job["workload"], Outcome(**o)) for o in job["outcomes"]], sys.stdout)
