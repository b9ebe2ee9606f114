"""Golden digests of the captured interaction profiles.

The simulator replays these profiles and never runs SQL, and every
statement's priced ``cpu_seconds`` feeds them, so this is the exactness
gate for the functional layer: a change to the SQL engine's row
accounting, pricing or statement count moves a digest here before it
moves any simulated result.

Each app is profiled in a fresh interpreter, as a cold CLI run or a
benchmark set-up profiles it.  In-process the values would depend on
which tests ran first: registration names embed a process-wide tag
counter that reaches the servlet_sync lock names.  The profiles are
hashed through the on-disk format of :mod:`repro.harness.profile_io`.

Regenerate (only when an intentional behaviour change lands)::

    PYTHONPATH=src python tests/test_profile_digests.py
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

GOLDEN = {
    "bookstore": {
        "statements": 83192,
        "priced_cpu_seconds": "46.67343337346484",
        "profiles": {
            "php":
                "fbd1abfb715c16cecb25a9379a5f14da010831535759d7c1ab882b48808481d9",
            "servlet":
                "8ce70946eb9dbdc132c4aca486659d29bcd26485bdad200e25c0e2958d73cb36",
            "servlet_sync":
                "41f082a46a547928ca53cdfa1545f92d7b352e3c5d3d88be7cde8fe712b4f761",
            "ejb":
                "7032b1a37253ff68434a59088852631336858165419d79a8514d7e98c632b76a",
        },
    },
    "auction": {
        "statements": 3360,
        "priced_cpu_seconds": "1.059645063890307",
        "profiles": {
            "php":
                "8f9c23520da2acc3a63562bcd2aa5eb5f1e1f9445b4ea3f86e730cac168dacd3",
            "servlet":
                "520c478e054ab0404cf96df7074b2afafaf0daf338a8a2c5fbae0ea01e2b3ea7",
            "servlet_sync":
                "8b2e9caf9ea910584fe6f89bff8f87fce77974b5c2a9710ba2e06bf25ff8315b",
            "ejb":
                "cf3e7f5e435048cdba5d5d5a8beddbc6e9c926c98d08ddc52e6243fe1a7d8000",
        },
    },
    "bboard": {
        "statements": 662,
        "priced_cpu_seconds": "0.5214361280000012",
        "profiles": {
            "php":
                "05eb74762f88e2468a25bd4500238e414244668391b4e4e40c99a9fe0a05f59a",
            "servlet":
                "7d21b7c5658dc003b463dc3a85d8041011d851aba87f4e10286dab6f0f7e6599",
            "servlet_sync":
                "a6cbef05c123128500f48b2c29eb7629cb47636c1b0ddc3bd4f335ce4653f4fc",
            "ejb":
                "07b9b679a98a1c870e9fc4eedca965b08e83066f95bbdf98acbec94289bb5d60",
        },
    },
}


def capture(app_name: str) -> dict:
    """Digests, statement count and priced CPU of a cold profiling pass."""
    from repro.apps import build_app
    from repro.harness.profile_io import profile_to_dict
    from repro.harness.profiles import profile_all_flavors

    app = build_app(app_name)
    # The same repetitions as repro.experiments.common.get_profiles.
    profiles = profile_all_flavors(app, repetitions=3)
    return {
        "statements": app.database.queries_executed,
        "priced_cpu_seconds": repr(app.database.priced_cpu_seconds),
        "profiles": {
            flavor: hashlib.sha256(
                json.dumps(profile_to_dict(profile)).encode()).hexdigest()
            for flavor, profile in profiles.items()},
    }


def capture_cold(app_name: str) -> dict:
    """:func:`capture` in a fresh interpreter (inherits PYTHONHASHSEED)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                           app_name], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("app_name", sorted(GOLDEN))
def test_profiles_match_golden(app_name):
    assert capture_cold(app_name) == GOLDEN[app_name]


if __name__ == "__main__":
    if len(sys.argv) == 2:
        print(json.dumps(capture(sys.argv[1])))
    else:
        print(json.dumps({name: capture_cold(name) for name in GOLDEN},
                         indent=4))
