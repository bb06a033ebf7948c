#!/usr/bin/env bash
# One committed replay token per grammar (docs/testing.md §2), replayed
# through the verb that prints it.  Each must parse, rerun its exact
# execution and exit 0; `set -e` fails the gate on the first that does not.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:${PYTHONPATH}}"

timeout 60 python -m repro chaos --replay \
    "m=1,u=2,n=5,severity=crash,transport=local,seed=11,timeout=0.25,kill_links=1"
timeout 60 python -m repro fuzz --transport local --replay \
    "m=1,u=2,n=5,value=beta,faults=p2:silent,chaos=heavy:991,timeout=0.25"
timeout 60 python -m repro explore --replay \
    "m=1,u=2,n=5,value=alpha,faults=p1:two-faced,timeout=1.0,batch=1,sup=1,bug=0,sched=1.0.2"
