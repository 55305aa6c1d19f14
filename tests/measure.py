"""How the tests measure a call's memory and start a child interpreter.

    from measure import TOOLS, child_env, traced_peak

A child's resident peak is read with tools/wide_run.py's readers
(rss_bytes, peak_rss_bytes), so the tests and the wide runs read the same
numbers the same way; child_env(TOOLS) lets a child import wide_run.
"""

import os
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TOOLS = os.path.join(ROOT, "tools")


def traced_peak(call):
    """Run call() under tracemalloc; return its result and the peak bytes
    traced during it above those traced when tracing started."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def child_env(*paths, **variables):
    """os.environ with variables set and the absolute src, then paths,
    first on PYTHONPATH: absolute, because a child run in another
    directory would not resolve a relative one."""
    path = os.pathsep.join(filter(None, [SRC, *paths,
                                         os.environ.get("PYTHONPATH")]))
    return dict(os.environ, **variables, PYTHONPATH=path)
