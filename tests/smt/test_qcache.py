"""Canonical query cache: keying, serialization, LRU, and the disk layer."""

import json
import multiprocessing
import os
import pathlib
import subprocess
import sys
import textwrap

from repro.smt import (
    And, BVConst, BVVar, Eq, Not, Or, ULt, fresh_scope, fresh_var,
)
from repro.smt.model import Model
from repro.smt.qcache import (
    FORMAT_TAG, QueryCache, canonical_key, canonicalize, decode_terms,
    encode_terms, model_from_canonical, model_to_canonical,
)
from repro.smt.sorts import BV


def _query(prefix: str, width: int = 8, constant: int = 5):
    """``x + 1 == y  /\\  y < constant`` over fresh names.

    Constants are interned before any variables (as in real checker runs,
    where geometry and literals exist before per-check fresh variables), so
    alpha-variants share commutative argument order.
    """
    one = BVConst(1, width)
    bound = BVConst(constant, width)
    x = BVVar(f"{prefix}.x", width)
    y = BVVar(f"{prefix}.y", width)
    return [Eq(x + one, y), ULt(y, bound)], (x, y)


class TestCanonicalKey:
    def test_alpha_renamed_queries_hit(self):
        q1, _ = _query("alpha.a")
        q2, _ = _query("alpha.b")
        assert q1[0] is not q2[0]  # genuinely different terms...
        assert canonical_key(q1) == canonical_key(q2)  # ...same key

    def test_fresh_scope_makes_runs_identical(self):
        def build():
            with fresh_scope():
                t = fresh_var("t", BV(8))
                u = fresh_var("u", BV(8))
                return [Eq(t + BVConst(1, 8), u)]
        r1, r2 = build(), build()
        assert r1[0] is r2[0]  # interning collapses the two runs entirely
        assert canonical_key(r1) == canonical_key(r2)

    def test_bitwidth_miss(self):
        q8, _ = _query("w.a", width=8)
        q16, _ = _query("w.b", width=16)
        assert canonical_key(q8) != canonical_key(q16)

    def test_constant_miss(self):
        q5, _ = _query("c.a", constant=5)
        q6, _ = _query("c.b", constant=6)
        assert canonical_key(q5) != canonical_key(q6)

    def test_operator_miss(self):
        x, y = BVVar("op.x", 8), BVVar("op.y", 8)
        assert canonical_key([And(Eq(x, 1), Eq(y, 2))]) != \
            canonical_key([Or(Eq(x, 1), Eq(y, 2))])

    def test_sharing_pattern_distinguished(self):
        # P(x, y) and P(x, x) must never collide: a cached model for one
        # would be wrong for the other.
        x, y = BVVar("sh.x", 8), BVVar("sh.y", 8)
        two_vars = [ULt(x, 5), Not(ULt(y, 5))]
        one_var = [ULt(x, 5), Not(ULt(x, 5))]
        assert canonical_key(two_vars) != canonical_key(one_var)

    def test_assertion_order_matters(self):
        a, b = ULt(BVVar("ord.x", 8), 5), ULt(BVVar("ord.y", 8), 9)
        assert canonical_key([a, b]) != canonical_key([b, a])


class TestTermSerialization:
    def test_roundtrip_reinterns(self):
        q, (x, y) = _query("ser.a")
        blob = encode_terms(q)
        decoded = decode_terms(blob)
        assert decoded[0] is q[0] and decoded[1] is q[1]

    def test_roundtrip_through_json(self):
        q, _ = _query("ser.b")
        blob = json.loads(json.dumps(encode_terms(q)))
        assert decode_terms(blob)[0] is q[0]


class TestModelProjection:
    def test_remap_to_renamed_query(self):
        q1, (x1, y1) = _query("mp.a")
        q2, (x2, y2) = _query("mp.b")
        key1, varmap1 = canonicalize(q1)
        key2, varmap2 = canonicalize(q2)
        assert key1 == key2
        model = Model({x1: 3, y1: 4})
        data = model_to_canonical(model, varmap1)
        remapped = model_from_canonical(data, varmap2)
        assert remapped[x2] == 3 and remapped[y2] == 4
        for term in q2:
            assert remapped.eval(term) is True


class TestQueryCacheMemory:
    def test_lru_eviction(self):
        cache = QueryCache(maxsize=2)
        for i in range(3):
            cache.store(f"k{i}", {"verdict": "unsat", "model": None,
                                  "stats": {}})
        assert cache.lookup("k0") is None  # evicted
        assert cache.lookup("k2") is not None

    def test_hit_and_miss_counters(self):
        cache = QueryCache()
        cache.store("k", {"verdict": "sat", "model": None, "stats": {}})
        cache.lookup("k")
        cache.lookup("absent")
        assert cache.stats["hits"] == 1 and cache.stats["misses"] == 1


class TestQueryCacheDisk:
    def _entry(self):
        return {"verdict": "sat",
                "model": {"scalars": {0: 3}, "arrays": {1: {0: 7}}},
                "stats": {"conflicts": 2}}

    def test_roundtrip_same_process(self, tmp_path):
        writer = QueryCache(disk_dir=tmp_path)
        writer.store("deadbeef", self._entry())
        reader = QueryCache(disk_dir=tmp_path)  # fresh in-memory state
        entry = reader.lookup("deadbeef")
        assert entry is not None
        assert entry["verdict"] == "sat"
        # int keys survive the JSON round trip
        assert entry["model"]["scalars"][0] == 3
        assert entry["model"]["arrays"][1][0] == 7
        assert reader.stats["disk_hits"] == 1

    def test_survives_fresh_process(self, tmp_path):
        QueryCache(disk_dir=tmp_path).store("cafe01", self._entry())
        script = textwrap.dedent(f"""
            from repro.smt.qcache import QueryCache
            entry = QueryCache(disk_dir={str(tmp_path)!r}).lookup("cafe01")
            assert entry is not None and entry["verdict"] == "sat"
            assert entry["model"]["scalars"][0] == 3
            print("WARM-OK")
        """)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
            env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "WARM-OK" in proc.stdout

    def test_rejects_stale_format_tag(self, tmp_path):
        stale = QueryCache(disk_dir=tmp_path, format_tag="pugpara-qcache-v0")
        stale.store("0ld", self._entry())
        current = QueryCache(disk_dir=tmp_path)
        assert current.lookup("0ld") is None

    def test_rejects_corrupt_file(self, tmp_path):
        cache = QueryCache(disk_dir=tmp_path)
        cache.store("feed00", self._entry())
        os.makedirs(cache.shard_dir("bad0"), exist_ok=True)
        with open(cache.entry_path("bad0"), "w") as fh:
            fh.write("{not json")
        assert cache.lookup("bad0") is None

    def test_tag_matches_module_constant(self, tmp_path):
        cache = QueryCache(disk_dir=tmp_path)
        cache.store("tagchk", self._entry())
        payload = json.loads(
            pathlib.Path(cache.entry_path("tagchk")).read_text())
        assert payload["tag"] == FORMAT_TAG

    def test_entries_live_in_prefix_shards(self, tmp_path):
        cache = QueryCache(disk_dir=tmp_path)
        cache.store("deadbeef", self._entry())
        cache.store("cafe01", self._entry())
        assert (tmp_path / "de" / "deadbeef.json").exists()
        assert (tmp_path / "ca" / "cafe01.json").exists()
        # nothing but shard dirs and the migration lock at the root
        top = {p.name for p in tmp_path.iterdir()}
        assert not any(n.endswith(".json") for n in top)


class TestDiskIntegrity:
    """The checksum + quarantine layer of the disk cache."""

    def _entry(self):
        return {"verdict": "sat",
                "model": {"scalars": {0: 3}, "arrays": {}},
                "stats": {"conflicts": 2}}

    def test_entries_carry_verifying_checksum(self, tmp_path):
        writer = QueryCache(disk_dir=tmp_path)
        writer.store("chk", self._entry())
        payload = json.loads(
            pathlib.Path(writer.entry_path("chk")).read_text())
        assert "checksum" in payload
        assert QueryCache(disk_dir=tmp_path).lookup("chk") is not None

    def test_checksum_mismatch_quarantined(self, tmp_path):
        writer = QueryCache(disk_dir=tmp_path)
        writer.store("tamper", self._entry())
        path = pathlib.Path(writer.entry_path("tamper"))
        payload = json.loads(path.read_text())
        payload["entry"]["verdict"] = "unsat"  # bit rot / tampering
        path.write_text(json.dumps(payload))
        reader = QueryCache(disk_dir=tmp_path)
        assert reader.lookup("tamper") is None
        assert not path.exists()
        assert path.with_suffix(".json.corrupt").exists()
        assert reader.stats["quarantined"] == 1

    def test_torn_json_quarantined_in_shard(self, tmp_path):
        reader = QueryCache(disk_dir=tmp_path)
        os.makedirs(reader.shard_dir("feed05"), exist_ok=True)
        path = pathlib.Path(reader.entry_path("feed05"))
        path.write_text('{"tag": "pugpara')  # a torn write inside the shard
        assert reader.lookup("feed05") is None
        assert path.with_suffix(".json.corrupt").exists()
        assert reader.stats["quarantined"] == 1

    def test_quarantined_file_not_reparsed(self, tmp_path):
        reader = QueryCache(disk_dir=tmp_path)
        os.makedirs(reader.shard_dir("feed06"), exist_ok=True)
        pathlib.Path(reader.entry_path("feed06")).write_text("{not json")
        assert reader.lookup("feed06") is None
        assert reader.stats["quarantined"] == 1
        # second lookup: the damaged file is gone, so it's a plain miss
        assert reader.lookup("feed06") is None
        assert reader.stats["quarantined"] == 1

    def test_stale_tag_is_miss_not_quarantine(self, tmp_path):
        stale = QueryCache(disk_dir=tmp_path, format_tag="pugpara-qcache-v0")
        stale.store("0ldie", self._entry())
        reader = QueryCache(disk_dir=tmp_path)
        assert reader.lookup("0ldie") is None
        assert reader.stats["quarantined"] == 0
        # left in its shard for the generation that understands it
        assert pathlib.Path(reader.entry_path("0ldie")).exists()

    def test_injected_corruption_survived(self, tmp_path):
        """A corrupt_cache fault garbles the write; the next reader
        quarantines it and reports a miss — never a wrong entry."""
        from repro.smt import FaultPlan, faults
        with faults.injected(FaultPlan(seed=7, corrupt_cache=1.0)):
            QueryCache(disk_dir=tmp_path).store("fz", self._entry())
        reader = QueryCache(disk_dir=tmp_path)
        assert reader.lookup("fz") is None
        assert reader.stats["quarantined"] == 1

    def test_clear_disk_removes_quarantined(self, tmp_path):
        cache = QueryCache(disk_dir=tmp_path)
        cache.store("good", self._entry())
        os.makedirs(cache.shard_dir("bad"), exist_ok=True)
        pathlib.Path(cache.entry_path("bad")).write_text("{not json")
        cache.lookup("bad")  # quarantines
        cache.clear(disk=True)
        assert list(tmp_path.iterdir()) == []


def _hammer_writer(disk_dir: str, worker: int, keys: list, barrier) -> None:
    """Write every key (with worker-distinct payloads) against a shared
    directory, synchronized so both processes pound the shards at once."""
    cache = QueryCache(disk_dir=disk_dir)
    barrier.wait(timeout=30)
    for round_ in range(5):
        for key in keys:
            cache.store(key, {"verdict": "sat",
                              "model": {"scalars": {0: worker},
                                        "arrays": {}},
                              "stats": {"round": round_}})


class TestConcurrentShardAccess:
    """Two processes sharing one cache directory: the sharded layout's
    per-shard locking + atomic renames must keep every entry wellformed."""

    def _valid_entry(self, path: pathlib.Path) -> bool:
        payload = json.loads(path.read_text())
        from repro.smt.qcache import _entry_checksum
        return payload["checksum"] == _entry_checksum(payload["entry"])

    def test_two_processes_same_shard_race_free(self, tmp_path):
        # Same two-hex prefix -> every key lands in the *same* shard, so
        # the writers contend on one lock file.
        keys = [f"ab{i:04x}" for i in range(8)]
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        procs = [ctx.Process(target=_hammer_writer,
                             args=(str(tmp_path), w, keys, barrier))
                 for w in (1, 2)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        shard = tmp_path / "ab"
        assert sorted(p.name for p in shard.glob("*.json")) == \
            sorted(f"{k}.json" for k in keys)
        # no torn/corrupt leftovers, every surviving entry verifies
        assert not list(tmp_path.rglob("*.corrupt"))
        for key in keys:
            assert self._valid_entry(shard / f"{key}.json")
        reader = QueryCache(disk_dir=tmp_path)
        for key in keys:
            entry = reader.lookup(key)
            assert entry is not None
            assert entry["model"]["scalars"][0] in (1, 2)

    def test_two_processes_disjoint_shards(self, tmp_path):
        keys_a = [f"aa{i:02x}" for i in range(4)]
        keys_b = [f"bb{i:02x}" for i in range(4)]
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        procs = [ctx.Process(target=_hammer_writer,
                             args=(str(tmp_path), w, keys, barrier))
                 for w, keys in ((1, keys_a), (2, keys_b))]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        reader = QueryCache(disk_dir=tmp_path)
        for key in keys_a + keys_b:
            assert reader.lookup(key) is not None
        assert not list(tmp_path.rglob("*.corrupt"))

