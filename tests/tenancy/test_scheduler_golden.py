"""Golden tenancy payloads: every policy's full run, pinned by digest.

``tests/eval/test_multitenant.py`` checks orderings and accounting,
which a change to *which* tenant a node switches to can leave intact.
The run payload cannot: per-tenant latencies, switch counts and divert
counts all move if a scheduling decision does.  Two populations are
pinned under gang, round-robin and quantum:

* the quick grid of ``tests/eval/test_multitenant.py`` (96 tenants,
  generation window 3,000, horizon 4,500);
* 512 tenants over a short window (1,000 / 1,500), where many tenants
  wait at once — its round-robin run takes 48 switches and 253 PIN
  diverts — so the choice among waiting tenants is exercised hard.

Every digest was captured on the tree whose schedulers probed every
registered PIN per node per tick; indexing the choice by stored backlog
must reproduce them.
"""

import hashlib
import json

import pytest

from repro.eval.multitenant import multitenant_params, run_policy
from repro.exp.spec import EvalOptions
from repro.tenancy.workload import make_tenants

#: label -> parameter overrides on the default multitenant grid.
POPULATIONS = {
    "quick": dict(n_tenants=96, gen_window=3000, horizon=4500),
    "wide": dict(n_tenants=512, gen_window=1000, horizon=1500),
}

#: (population, policy) -> sha256 of run_policy's payload as JSON.
GOLDEN = {
    ("quick", "gang"): (
        "f54d5e2176510dcc6398385a44007924369ae733d4a27ed413334715afd78d34"
    ),
    ("quick", "round-robin"): (
        "7cac97dae4aec6e0a01581cfbd33a4a8384d8d1956a25817e1098043e8f891d7"
    ),
    ("quick", "quantum"): (
        "6ed05ff244e12bb0c174abeb626be6a2e0fc8e5c31dd7a770f98f0980eead0b3"
    ),
    ("wide", "gang"): (
        "0b0f87adc35dd838330077ecab0ab7e87a88c702a918fb1475407e877b3264d8"
    ),
    ("wide", "round-robin"): (
        "e0b2d4f172aa99c058cc2490b5f20607e45a53e7bf0210d3c5e2832a58393cf3"
    ),
    ("wide", "quantum"): (
        "1de20d63d852f5ed0545fe45b94005955fd54be119770a1d6a7da10175252ddd"
    ),
}


def population_params(label: str):
    params = multitenant_params(EvalOptions())
    params.update(POPULATIONS[label])
    return params


def payload_digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "population, policy", sorted(GOLDEN), ids=[f"{p}-{n}" for p, n in sorted(GOLDEN)]
)
def test_policy_payload_matches_golden(population, policy):
    params = population_params(population)
    tenants = make_tenants(
        params["n_tenants"], params["width"] * params["height"], params["seed"]
    )
    payload = run_policy(policy, tenants, params)
    assert payload_digest(payload) == GOLDEN[(population, policy)]
