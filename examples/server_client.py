#!/usr/bin/env python3
"""Client/server round trip — OptImatch as a service (Figure 4).

The paper's OptImatch is a web tool: a browser GUI posts pattern JSON to
a server that owns the transformation and matching engines.  This
example plays both roles in one process: it starts the HTTP server on an
ephemeral port, uploads a workload over HTTP, searches it with the
Figure 5 pattern JSON a GUI would send, and runs the knowledge base —
all through the wire protocol.

Run:  python examples/server_client.py
"""

import http.client
import json

from repro import generate_workload, write_plan
from repro.kb.builtin import make_pattern
from repro.server import AsyncOptImatchServer

# ----------------------------------------------------------------------
# Server side: start on an ephemeral port.
# ----------------------------------------------------------------------
server = AsyncOptImatchServer(port=0).start()
host, port = server.address
print(f"server up at http://{host}:{port}")

client = http.client.HTTPConnection(host, port, timeout=30)


def call(method, path, body=None):
    client.request(method, path, body=body)
    response = client.getresponse()
    return response.status, json.loads(response.read().decode("utf-8"))


# ----------------------------------------------------------------------
# Client side: upload a workload over HTTP.
# ----------------------------------------------------------------------
plans = generate_workload(
    6, seed=11, plant_rates={"A": 0.5},
    size_sampler=lambda rng: rng.randint(15, 40),
)
for plan in plans:
    status, payload = call("POST", "/plans", write_plan(plan))
    assert status == 201, payload
    print(f"uploaded {payload['planId']}: {payload['operators']} ops -> "
          f"{payload['triples']} triples")

status, payload = call("GET", "/health")
print(f"\nhealth: {payload}\n")

# ----------------------------------------------------------------------
# Search with the JSON a GUI pattern builder would post (Figure 5).
# ----------------------------------------------------------------------
pattern_json = make_pattern("A").to_json()
status, payload = call("POST", "/search", pattern_json)
assert status == 200
print("search results for Pattern A:")
for match in payload["matches"]:
    top = match["occurrences"][0]["TOP"]
    print(f"  {match['planId']}: NLJOIN #{top['number']} "
          f"(cost {top['totalCost']:,.0f})")

# ----------------------------------------------------------------------
# Run the knowledge base remotely.
# ----------------------------------------------------------------------
status, payload = call("POST", "/kb/run")
assert status == 200
print(f"\nknowledge-base hits: {payload['hits']}")
for plan_result in payload["plans"]:
    for result in plan_result["results"][:1]:
        print(f"  [{plan_result['planId']}] ({result['confidence']:.2f}) "
              f"{result['recommendations'][0][:100]}...")

client.close()
server.stop()
print("\nserver stopped cleanly")
