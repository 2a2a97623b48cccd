#!/usr/bin/env bash
# Smoke-test the installed `mrenew` entry point: every command once, each
# exiting 0, numerical failures exiting 1 and argument errors 2.  Run it
# with `mrenew` on PATH, from any directory, e.g.
# PYTHONWARNINGS=error::RuntimeWarning bash .github/smoke.sh
set -euo pipefail

# expect_exit CODE CMD ...: run CMD and fail unless it exits with CODE
expect_exit() {
  local want=$1 status=0
  shift
  "$@" || status=$?
  test "$status" -eq "$want" || { echo "expected exit $want, got $status: $*" >&2; return 1; }
}

mrenew validate --quick
mrenew transform --i 0 --j 0 --s-grid 1:1:1 --lambda 1 --alpha 1
mrenew renewal --i 0 --j 1 --t-grid 0.5:2:4 --lambda 1 --alpha 1 --method gs
mrenew renewal --i 0 --j 1 --t-grid 0.5:2:4 --lambda 1 --alpha 1 --method euler
# one time's 14 Gaver-Stehfest abscissas: a real grid one column short of the
# array sweep, which takes 15 or more, so it takes the short sweep
mrenew renewal --i 3 --j 2 --t-grid 2:2:1 --lambda 5 --alpha 1 --method gs
# order 18: 18 real abscissas in the array sweep, with the largest weight table
mrenew renewal --i 2 --j 2 --t-grid 1:1:1 --lambda 3 --alpha 1 --method gs --order 18
# order 16, the acceptance order (criterion 7), on its pure-death row: 16 real abscissas in the array sweep
mrenew renewal --i 1 --j 0 --t-grid 1:1:1 --lambda 0 --alpha 1 --method gs --order 16
# two times of 27 Euler abscissas each: one complex grid of 54 columns in the array sweep
mrenew renewal --i 5 --j 3 --t-grid 0.5:50:2 --lambda 20 --alpha 1 --method euler
mrenew renewal --i 14 --j 9 --t-grid 1:300:3 --lambda 1000 --alpha 1 --method euler
mrenew transform --i 14 --j 9 --s-grid 0.01:100:6 --lambda 1000 --alpha 1
# cuts judged at every eighth level past the first, in both sweeps: 54 Euler columns
# cut at N = 41 to 49, and 14 Gaver-Stehfest columns in the short sweep at N = 136
mrenew renewal --i 8 --j 6 --t-grid 2.41577:4.83154:2 --lambda 128.945 --alpha 0.556887 --method euler
mrenew renewal --i 15 --j 14 --t-grid 249.64:249.64:1 --lambda 57.0432 --alpha 1.13165 --method gs --order 14
# a short grid swept together: six columns cut at N = 2,082 to 2,426, over six kernel blocks
mrenew transform --i 0 --j 2000 --s-grid 0.01:100:6 --lambda 2000 --alpha 1 --solver oracle
# the closed form's Poisson window reaches rho = 1e5
mrenew transform --i 5 --j 30 --s-grid 0.01:1:3 --lambda 100000 --alpha 1 --solver closedform
mrenew simulate --i 0 --j 1 --t-grid 0.5:2:4 --lambda 1 --alpha 1 --paths 2000 --seed 7 --workers 2
# pure death over two blocks: state 0 absorbs, through step's division by a rate of 0,
# which the walker's one np.errstate per block lets pass as a sojourn of inf
mrenew simulate --i 3 --j 0 --t-grid 1:5:3 --lambda 0 --alpha 1 --paths 2000 --seed 7
mrenew hyperg --a 1 --b 2 --z 1
# kummer_m sums over the Poisson window too: no term cap stops it at |z| = 2e4
mrenew hyperg --a 1 --b 2 --z -20000

# a Kummer window past k = 2^21 is a numerical failure, raised at once: these
# terms peak near k = 1e150, where a step of k no longer moves it
expect_exit 1 timeout 20 mrenew hyperg --a 1e300 --b 1 --z 1

# values past the largest double are numerical failures too: phi(a, 1; z) ~ e^{2 sqrt(a z)}
expect_exit 1 timeout 20 mrenew hyperg --a 1e200 --b 1 --z 1e-190
expect_exit 1 timeout 20 mrenew hyperg --a 1e308 --b 1 --z 1e-300

# terms past 2^53 times the largest double, with b < 0: refused before the sum
# (it ran on, a step per term), and a sum whose terms cancel past its rounding
# bound (it printed -4.56e7 for -1.65e-3)
expect_exit 1 timeout 20 mrenew hyperg --a=-7.19e89 --b=-16.47 --z=-3.17e-78
expect_exit 1 timeout 20 mrenew hyperg --a=-1000.5 --b 2 --z 1
# a window that ends where the terms fall, far below k = -a (it took 2 s)
timeout 20 mrenew hyperg --a=-1040153.655 --b 10.71 --z 5.42e-22
# a million terms below k1, or a start product of a million factors: linear time (they took 0.5 to 7 s)
timeout 5 mrenew hyperg --a 2.5e204 --b=-1534304.48 --z=-1.59e-264
timeout 5 mrenew hyperg --a=-9.4e215 --b=-2085543.53 --z 9.69e-223
timeout 5 mrenew hyperg --a 4.05e51 --b=-916494.7 --z 1.16e-98
timeout 5 mrenew hyperg --a 0.5 --b 3.5 --z=-1e6

# help goes to the parser it names, and exits 0
mrenew --help > /dev/null
mrenew transform --help > /dev/null
# an unknown option is refused by the command's own parser, with exit code 2
expect_exit 2 mrenew transform --i 0 --j 0 --s-grid 1:1:1 --lambda 1 --alpha 1 --bogus 3
# a polynomial of degree 2 whose first k with b + k > 0 lies past k = 2^21 (it was refused)
mrenew hyperg --a=-2 --b=-10000000.5 --z 1
# top = j: every state kept is a record, and the first level judged, j + 2, lies past it
mrenew transform --i 2 --j 250 --s-grid 0.01:1:6 --lambda 300 --alpha 1

# a time whose inversion rule passes the solvers' floor Re(s) >= 1e-14 is an argument error
expect_exit 2 mrenew renewal --i 0 --j 0 --t-grid 1e15:1e15:1 --lambda 1 --alpha 1 --method gs
# an abscissa whose alpha s passes the largest double is an argument error, in either
# solver (a traceback out of numpy's overflow warning, exit 1)
expect_exit 2 mrenew transform --i 3 --j 2 --s-grid 1e10:1e10:1 --lambda 1e-300 --alpha 1e300 --solver oracle
expect_exit 2 mrenew transform --i 3 --j 2 --s-grid 1e10:1e10:1 --lambda 1e-300 --alpha 1e300 --solver closedform
# a row judged at its first level past top = i and at the cap n_max = 65536 (judged
# once, past the cap, it was refused as not converged), and a row whose top passes
# n_max - 2, where no two moves are left to judge a cut, refused as out of range
mrenew transform --i 65530 --j 0 --s-grid 1:1:1 --lambda 1 --alpha 1 --solver oracle
expect_exit 2 mrenew transform --i 65535 --j 0 --s-grid 1:1:1 --lambda 1 --alpha 1 --solver oracle
# every route takes the same states, 0..n_max - 2: past them the simulator raised a bare
# OverflowError at 2^63 and walked 132 s at 10^12, and the closed form asked for 7.28 TiB
expect_exit 2 timeout 20 mrenew simulate --i 9223372036854775808 --j 0 --t-grid 1:1:1 --lambda 1 --alpha 1 --paths 10 --seed 1
expect_exit 2 timeout 20 mrenew transform --i 1000000000000 --j 0 --s-grid 1:1:1 --lambda 1 --alpha 1 --solver closedform
expect_exit 2 timeout 20 mrenew simulate --i 1000000000000 --j 0 --t-grid 1:1:1 --lambda 1 --alpha 1 --paths 3 --seed 1
# an Euler abscissa whose alpha s is below the largest double, but numpy's complex
# division by it overflows, is an argument error too (it printed 1.0000000060766321)
expect_exit 2 mrenew renewal --i 0 --j 0 --t-grid 4.6e-7:4.6e-7:1 --lambda 1e-300 --alpha 1e300 --method euler
# a horizon whose least expected event count passes the event cap is a numerical
# failure, raised before the walk (it walked 10^7 lock-step iterations, about 150 s)
expect_exit 1 timeout 5 mrenew simulate --i 0 --j 0 --t-grid 1e9:1e9:1 --lambda 1 --alpha 1 --paths 3 --seed 1
# numpy's complex division by a subnormal j + rho + alpha s overflows: an argument
# error, one line (a bare IndexError traceback)
expect_exit 2 mrenew renewal --i 15 --j 1 --t-grid 54.3841035790151:54.3841035790151:1 --lambda 0.01072308656014151 --alpha 1e-310 --method euler
# a subnormal rate and a subnormal alpha walk under the walker's np.errstate, with no
# warning (step warned of an overflow in its division), and a horizon whose lam t
# passes the largest double is refused at once (a warning from the scalar product)
mrenew simulate --i 15 --j 9 --t-grid 2381.1404699317522:2381.1404699317522:1 --lambda 5e-324 --alpha 2.89392404696635e-59 --paths 20 --seed 1
mrenew simulate --i 40 --j 30 --t-grid 1.454540807929017e-05:1.454540807929017e-05:1 --lambda 185.77022894139077 --alpha 5e-324 --paths 20 --seed 1
expect_exit 1 timeout 5 mrenew simulate --i 0 --j 2 --t-grid 3.542742223259935e+257:3.542742223259935e+257:1 --lambda 2.9640887344869473e+264 --alpha 1.6140879367420947e-121 --paths 20 --seed 1
