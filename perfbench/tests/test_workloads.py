"""Self-tests of the benchmark's request generators.

    python3 -m unittest discover -s perfbench/tests

They check that each workload delivers the property it was chosen for,
from the generated requests alone (no daemon needed). run.py measures
the same properties on the daemons and prints them as "properties:".
"""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import workloads  # noqa: E402

SEEDS = (1, 2, 17)


class GeneratorTest(unittest.TestCase):
    def test_deterministic_per_seed(self):
        for name in workloads.GENERATORS:
            for seed in SEEDS:
                a, b = workloads.make(name, seed), workloads.make(name, seed)
                self.assertEqual(a.sequences, b.sequences, name)
                self.assertEqual(a.prime, b.prime, name)
                self.assertEqual(a.warmup, b.warmup, name)

    def test_different_seeds_differ(self):
        for name in workloads.GENERATORS:
            a, b = workloads.make(name, 1), workloads.make(name, 2)
            self.assertNotEqual(a.sequences, b.sequences, name)

    def test_frames_parse_back(self):
        config = {"gridNx": 80, "scheme": "banke", "precond": "mg"}
        wl = workloads.make("fresh-steady", 1)
        req = wl.sequences[1][0]
        frame = wl.frame(req, 7, config)
        self.assertTrue(frame.endswith("\n"))
        body = workloads.json.loads(frame)
        self.assertEqual(body["id"], 7)
        self.assertEqual(body["freqGHz"], req["freqGHz"])
        # The request's own overrides win over the base config ...
        self.assertEqual(body["config"]["scheme"], req["config"]["scheme"])
        self.assertNotEqual(body["config"]["scheme"], "banke")
        # ... and every other base key passes through.
        self.assertEqual(body["config"]["precond"], "mg")


class FreshSteadyTest(unittest.TestCase):
    def test_no_simulation_key_repeats(self):
        for seed in SEEDS:
            wl = workloads.make("fresh-steady", seed)
            keys = [workloads.sim_key(r)
                    for seq in wl.sequences for r in seq] + \
                   [workloads.sim_key(r) for r in wl.warmup]
            self.assertEqual(len(keys), len(set(keys)))
            # No two keys of one app in neighbouring MHz either.
            taken = set(keys)
            for app, mhz in keys:
                self.assertNotIn((app, mhz + 1), taken)

    def test_balanced_mix(self):
        wl = workloads.make("fresh-steady", 3)
        self.assertEqual(wl.connections, len(wl.sequences))
        # Draws are dealt to the connections in turn; every four
        # consecutive draws hold each app once.
        draws = [r for group in zip(*wl.sequences) for r in group]
        for i in range(0, 80, 4):
            self.assertEqual(sorted(r["app"] for r in draws[i:i + 4]),
                             sorted(workloads.APPS))
        for seq in wl.sequences:
            for r in seq:
                self.assertTrue(2.0 <= r["freqGHz"] <= 3.5)
        # Each connection keeps to a scheme of its own, and set-up
        # builds each of their systems.
        schemes = [{r["config"]["scheme"] for r in seq}
                   for seq in wl.sequences]
        self.assertTrue(all(len(s) == 1 for s in schemes))
        self.assertEqual(len(set().union(*schemes)), wl.connections)
        self.assertEqual({r["config"]["scheme"] for r in wl.warmup},
                         set().union(*schemes))
        self.assertEqual(wl.pipeline, 1)
        self.assertEqual(wl.prime, [])

    def test_fleet_never_queues(self):
        # Through the frontend to two shards, each with a worker per
        # connection: however the ring splits the requests in flight,
        # none waits for a worker.
        wl = workloads.make("fresh-steady", 1)
        self.assertEqual(wl.shards, 2)
        self.assertGreaterEqual(wl.jobs, wl.connections * wl.pipeline)


class HotSteadyTest(unittest.TestCase):
    def test_no_inflight_duplicates(self):
        for seed in SEEDS:
            wl = workloads.make("hot-steady", seed)
            slices = [{workloads.scenario_key(r) for r in seq}
                      for seq in wl.sequences]
            # Connections own disjoint keys ...
            self.assertEqual(sum(map(len, slices)), len(set().union(*slices)))
            # ... and one connection repeats a key only after all of its
            # keys, many more than it keeps in flight.
            for seq in wl.sequences:
                period = len({workloads.scenario_key(r) for r in seq})
                self.assertGreater(period, wl.pipeline)
                for i in range(len(seq) - period + 1):
                    window = {workloads.scenario_key(r)
                              for r in seq[i:i + period]}
                    self.assertEqual(len(window), period)

    def test_hits_every_primed_simulation(self):
        for seed in SEEDS:
            wl = workloads.make("hot-steady", seed)
            primed = set(wl.prime)
            self.assertEqual(len(primed), 48)
            asked = {(r["app"], r["freqGHz"]) for seq in wl.sequences
                     for r in seq[:12]}
            self.assertEqual(asked, primed)
            for r in wl.warmup:
                self.assertIn((r["app"], r["freqGHz"]), primed)


class BenchmarkFileTest(unittest.TestCase):
    def test_declared_metrics_match_the_runner(self):
        path = os.path.join(HERE, "..", "..", "BENCHMARK.json")
        if not os.path.isfile(path):
            self.skipTest("no BENCHMARK.json next to the benchmark")
        import run
        with open(path) as f:
            bench = workloads.json.load(f)
        self.assertEqual({w["name"] for w in bench["workloads"]},
                         set(workloads.GENERATORS))
        for key, units in (("end_to_end", run.END_TO_END_UNITS),
                           ("per_layer", run.PER_LAYER_UNITS)):
            self.assertEqual({m["name"]: m["unit"] for m in bench[key]},
                             units, key)


class ConfigTest(unittest.TestCase):
    def test_parse_default_cfg(self):
        path = os.path.join(HERE, "..", "..", "configs", "default.cfg")
        if not os.path.isfile(path):
            self.skipTest("no configs/default.cfg next to the benchmark")
        with open(path) as f:
            cfg = workloads.parse_cfg(f.read())
        self.assertEqual(cfg["gridNx"], 80)
        self.assertEqual(cfg["precond"], "mg")
        self.assertIsInstance(cfg["convectionResistance"], float)


if __name__ == "__main__":
    unittest.main()
