#!/usr/bin/env bash
# Smoke-test the installed `mrenew` entry point: every command once, each
# exiting 0.  Run it with `mrenew` on PATH, from any directory, e.g.
# PYTHONWARNINGS=error::RuntimeWarning bash .github/smoke.sh
set -euo pipefail

mrenew validate --quick
mrenew transform --i 0 --j 0 --s-grid 1:1:1 --lambda 1 --alpha 1
mrenew renewal --i 0 --j 1 --t-grid 0.5:2:4 --lambda 1 --alpha 1 --method gs
mrenew renewal --i 0 --j 1 --t-grid 0.5:2:4 --lambda 1 --alpha 1 --method euler
mrenew simulate --i 0 --j 1 --t-grid 0.5:2:4 --lambda 1 --alpha 1 --paths 2000 --seed 7 --workers 2
mrenew hyperg --a 1 --b 2 --z 1
