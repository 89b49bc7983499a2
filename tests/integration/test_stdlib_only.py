"""The platform runs on the standard library alone.

Scoring is pure Python: nothing on the request path may import numpy, which
would add ~14 MB of resident memory to every process that serves a query.
The check runs in a fresh interpreter, so whatever the test runner itself
imported cannot hide or fake an import.
"""

import os
import subprocess
import sys

SCRIPT = """
import sys

from repro import build_platform

platform = build_platform(num_buyer_servers=4, replication_factor=1)
gateway = platform.gateway()
for user in ("alice", "bob", "carol", "dave"):
    assert gateway.login(user).ok
    hit = gateway.query(user, "books").result.hits[0]
    assert gateway.buy(user, hit.item, marketplace=hit.marketplace).ok
assert gateway.find_similar("alice").result.neighbors
assert platform.fleet.query_similar("bob").neighbors
# A crashed primary's shard is answered from its replica's own index.
platform.failures.crash_host(platform.fleet.servers[0].name)
assert platform.fleet.query_similar("carol").stale_shards
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
"""


def test_serving_queries_never_imports_numpy():
    source = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": os.path.abspath(source)},
        capture_output=True, text=True, check=True,
    )
    assert completed.stdout.strip() == "[]"
