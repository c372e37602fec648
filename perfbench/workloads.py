"""Seeded request generators for the serving benchmark.

Every workload is a closed loop: each connection waits for its replies
before sending more. A workload is fully determined by its name and
the seed; the daemons only ever see the generated request frames.

    fresh-steady  4 connections x 1 outstanding steady request, one
                  scheme per connection, sent through the frontend to
                  two shards. Every (app, freqGHz) pair is new, so every
                  activity simulation misses the shards' sim caches.
    hot-steady    4 connections x 4 pipelined steady requests over the
                  48 primed {app x DVFS point} simulations, one scheme
                  per connection, on one daemon. Each connection owns 12
                  of them and cycles through them in a fixed order, so a
                  key never repeats within 12 consecutive requests of one
                  connection and no two connections share a key.
"""

import json
import math
import random

APPS = ["FFT", "LU", "Radix", "Cholesky"]
# The standard DVFS table (power/dvfs.cpp): 2.4 to 3.5 GHz in 0.1 steps.
DVFS_GHZ = [round(2.4 + i * 0.1, 1) for i in range(12)]
# One per connection of the steady workloads: each connection then has a
# resident system of its own. Requests of one config serialise on its
# system's lock, which is not fair: with several waiters a request could
# wait several turns while others went ahead, and the p95 swung from
# seed to seed (41% spread over ten seeds on fresh-steady, 38% on
# hot-steady, with all four connections on the default scheme).
CONNECTION_SCHEMES = ["banke", "bank", "base", "prior"]

CONNECTIONS = 4
# Requests generated per connection: more than a timed phase of 60 s
# sends at the measured rates, so a connection never runs dry. Fresh
# keys are scarcer: 250 per app already fill half of the 1500 MHz range
# with their one-MHz guard bands.
SEQUENCE_LEN = 1200
FRESH_SEQUENCE_LEN = 250
# fresh-steady's fleet: two shards behind the frontend, each with a
# worker per connection, so a request never queues behind another
# wherever the ring sends it.
FRESH_SHARDS = 2


class Workload:
    def __init__(self, connections, pipeline, shards, jobs, prime, sequences,
                 warmup):
        self.connections = connections
        self.pipeline = pipeline     # outstanding requests per connection
        self.shards = shards         # 1 = one daemon, >1 = frontend + shards
        self.jobs = jobs             # xylem_serve --jobs per daemon
        self.prime = prime           # (app, freq) sims each shard primes
        self.sequences = sequences   # per connection: list of request dicts
        self.warmup = warmup         # set-up requests each shard answers

    def frame(self, request, rid, config):
        """One newline-terminated request frame."""
        body = {"id": rid, "query": request["query"], "app": request["app"],
                "freqGHz": request["freqGHz"],
                "config": dict(config, **request.get("config", {}))}
        return json.dumps(body, sort_keys=True) + "\n"


def sim_key(request):
    """The daemon's sim-cache identity of a steady request: the cache
    keys frequencies in whole MHz (xylem/sim_cache.cpp), so two requests
    within half a MHz share one simulation."""
    return (request["app"], math.floor(request["freqGHz"] * 1000.0 + 0.5))


def scenario_key(request):
    """Requests with equal keys ask for the same answer."""
    return json.dumps(request, sort_keys=True)


def parse_cfg(text):
    """`key = value` lines of a configs/*.cfg file as JSON overrides."""
    out = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            number = float(value)
            out[key] = int(number) if number.is_integer() else number
        except ValueError:
            out[key] = value
    return out


def _rng(seed, name, part):
    return random.Random(f"{seed}/{name}/{part}")


def fresh_steady(seed):
    # Simulation cost depends on the app and the frequency, so the draws
    # are balanced to keep a run's mix, and with it the figures, steady
    # from seed to seed: every four consecutive draws hold each app
    # once, and every 16 cover 16 equal strata of [2.0, 3.5] GHz once
    # each, in seeded order. Draws are dealt to the connections in turn.
    connections = CONNECTIONS
    rng = _rng(seed, "fresh-steady", "keys")
    strata = 16
    width = 1.5 / strata
    seen = set()
    draws = []
    order = []
    while len(draws) < FRESH_SEQUENCE_LEN * connections:
        apps = list(APPS)
        rng.shuffle(apps)
        for app in apps:
            if not order:
                order = list(range(strata))
                rng.shuffle(order)
            low = 2.0 + order.pop() * width
            # A draw next to a taken MHz is redrawn too, so rounding at a
            # half-MHz boundary cannot merge two keys either.
            while True:
                req = {"query": "steady", "app": app,
                       "freqGHz": rng.uniform(low, low + width)}
                mhz = sim_key(req)[1]
                if not seen & {(app, mhz - 1), (app, mhz), (app, mhz + 1)}:
                    break
            seen.add((app, mhz))
            draws.append(dict(req, config={"scheme": CONNECTION_SCHEMES[
                len(draws) % connections]}))
    sequences = [draws[c::connections] for c in range(connections)]
    return Workload(
        connections, 1, FRESH_SHARDS, connections, [], sequences,
        # Builds the resident systems on every shard; 1.9 GHz lies
        # outside the timed range, so no timed request reuses these
        # simulations.
        [{"query": "steady", "app": app, "freqGHz": 1.9,
          "config": {"scheme": scheme}}
         for app, scheme in zip(APPS, CONNECTION_SCHEMES)])


def hot_steady(seed):
    scenarios = [[{"query": "steady", "app": a, "freqGHz": f,
                   "config": {"scheme": scheme}}
                  for a in APPS for f in DVFS_GHZ]
                 for scheme in CONNECTION_SCHEMES]
    order = list(range(len(APPS) * len(DVFS_GHZ)))
    _rng(seed, "hot-steady", "slices").shuffle(order)
    per = len(order) // CONNECTIONS
    sequences = []
    for c in range(CONNECTIONS):
        mine = [scenarios[c][i] for i in order[c * per:(c + 1) * per]]
        _rng(seed, "hot-steady", c).shuffle(mine)
        sequences.append([mine[i % per] for i in range(SEQUENCE_LEN)])
    return Workload(
        CONNECTIONS, 4, 1, 4,
        [(s["app"], s["freqGHz"]) for s in scenarios[0]], sequences,
        # Builds the resident systems on primed simulations.
        [seq[0] for seq in sequences])


GENERATORS = {"fresh-steady": fresh_steady, "hot-steady": hot_steady}


def make(name, seed):
    return GENERATORS[name](seed)
