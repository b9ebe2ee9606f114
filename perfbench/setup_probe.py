"""Cold set-up of one application, as a fresh process pays it.

``python3 perfbench/setup_probe.py bookstore`` imports ``repro``, builds
the application with ``build_app`` and profiles every middleware flavor
with ``get_profiles``, then prints one JSON line with the seconds that
took and the SQL statements the application's database executed.
``run.py`` calls :func:`setup` in its own process and runs this script
for the further set-up samples it takes the median of.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

from profiler import Spans, patched  # noqa: E402


def _flavor_spans(spans: Spans):
    def wrap(profile_application):
        def traced(app, deployment, flavor, *args, **kwargs):
            with spans.span(f"profile.{flavor}"):
                return profile_application(app, deployment, flavor,
                                           *args, **kwargs)
        return traced
    return wrap


def setup(app_name: str, spans: Spans):
    """Import, build and profile; returns ``(seconds, app, profiles)``.

    Spans cover the import, ``build_app``, ``get_profiles`` and each
    flavor's profiling pass (four calls, so no measurable cost).
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    start = time.perf_counter()
    with spans.span("import"):
        import repro.harness.profiles as profiles_module
        from repro.apps import build_app
        from repro.experiments.common import get_profiles
    with spans.span("build_app"):
        app = build_app(app_name)
    with spans.span("get_profiles"), patched(
            profiles_module, "profile_application", _flavor_spans(spans)):
        profiles = get_profiles(app_name)
    return time.perf_counter() - start, app, profiles


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: setup_probe.py APP", file=sys.stderr)
        return 2
    seconds, app, __ = setup(argv[0], Spans())
    print(json.dumps({"setup_s": seconds,
                      "statements": app.database.queries_executed}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
