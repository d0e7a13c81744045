"""The five workloads, one module each.

Every module's docstring says why the workload exists, which layers it
loads and which it bypasses.  Each takes the seed as an argument and hands
the program only inputs generated from it, and each exposes the same six
functions, called by ``perf/run.py`` in this order::

    generate(seed, scale, smoke) -> inputs     rows and statements, from the seed
    setup(inputs, workdir)       -> state      build and load; timed as setup_s
    run(state, inputs, tracer)   -> Outcome    the measured phase, closed loop
    finish(state, inputs, outcome) -> dict     workload-scoped end-to-end metrics
    check(inputs, outcome)                     mark wrong answers; untimed
    close(state)

``scale`` multiplies the statement counts, which are fixed for a given
``--seconds`` so that counters repeat exactly.
"""

from perf.workloads import (
    crowd_mix,
    olap_scan,
    oltp_durable,
    plan_cold,
    tcp_serving,
)

BY_NAME = {
    "olap_scan": olap_scan,
    "plan_cold": plan_cold,
    "oltp_durable": oltp_durable,
    "tcp_serving": tcp_serving,
    "crowd_mix": crowd_mix,
}
