"""Unit and integration tests for cross-configuration VC templates."""

import json
import os

import pytest

from repro.check import check_races
from repro.check.configs import reduction_assumptions
from repro.check.result import Verdict, outcome_to_json
from repro.encode.templates import (
    TEMPLATE_FORMAT_TAG, TemplateStore, VCTemplate, kernel_digest,
    resolve_template_store, set_default_template_store, template_key,
    templates_enabled,
)
from repro.kernels import load
from repro.lang import check_kernel, parse_kernel
from repro.smt import BVAdd, BVConst, BVVar, Eq, fresh_scope

RACY = "void racy(int *o) { o[tid.x % 4] = tid.x; }"

CLEAN = "void clean(int *o) { o[tid.x] = tid.x; }"


def one_d(geo, inputs):
    return [geo.one_dimensional(), geo.single_block()]


def _info(src):
    return check_kernel(parse_kernel(src))


@pytest.fixture(autouse=True)
def _fresh_default_store():
    """Each test gets its own default store; never leak across tests."""
    set_default_template_store(TemplateStore())
    yield
    set_default_template_store(None)


class TestKeying:
    def test_key_ignores_textual_noise(self):
        a = _info("void k(int *o) { o[tid.x] = 1; }")
        b = _info("void k(int  *o)   {  o[ tid.x ]  =  1 ; }")
        assert kernel_digest(a) == kernel_digest(b)

    def test_key_splits_on_semantic_edit(self):
        a = _info("void k(int *o) { o[tid.x] = 1; }")
        b = _info("void k(int *o) { o[tid.x] = 2; }")
        assert kernel_digest(a) != kernel_digest(b)

    def test_key_includes_check_and_width(self):
        info = _info(CLEAN)
        assert template_key(info, "races", 8) != template_key(
            info, "races", 16)
        assert template_key(info, "races", 8) != template_key(
            info, "func", 8)


class TestBlobRoundTrip:
    def test_terms_reintern_identically(self):
        with fresh_scope():
            x = BVVar("tpl.x", 8)
            tpl = VCTemplate(
                check="races", width=8,
                base=[Eq(x, BVConst(1, 8))],
                queries=[("ww", 3, 4, "out", [Eq(BVAdd(x, x), x)])])
        back = VCTemplate.from_blob(tpl.to_blob())
        # decode re-interns: the reloaded terms ARE the original nodes.
        assert back.base[0] is tpl.base[0]
        assert back.queries[0][4][0] is tpl.queries[0][4][0]
        assert back.queries[0][:4] == ("ww", 3, 4, "out")

    def test_unsupported_survives(self):
        tpl = VCTemplate(check="races", width=8, unsupported="no loops")
        assert VCTemplate.from_blob(tpl.to_blob()).unsupported == "no loops"


class TestStore:
    def test_memory_hit_returns_same_object(self):
        store = TemplateStore()
        tpl = VCTemplate(check="races", width=8)
        store.store("k1", tpl)
        assert store.lookup("k1") is tpl
        assert store.stats["hits"] == 1

    def test_disk_round_trip(self, tmp_path):
        writer = TemplateStore(disk_dir=str(tmp_path))
        with fresh_scope():
            tpl = VCTemplate(check="races", width=8,
                             base=[Eq(BVVar("tpl.d", 8), BVConst(0, 8))])
        writer.store("dk", tpl)
        reader = TemplateStore(disk_dir=str(tmp_path))
        got = reader.lookup("dk")
        assert got is not None and got.base[0] is tpl.base[0]
        assert reader.stats["hits"] == 1
        assert reader.stats["disk_hits"] == 1

    def test_corrupt_entry_quarantines(self, tmp_path):
        writer = TemplateStore(disk_dir=str(tmp_path))
        writer.store("ck", VCTemplate(check="races", width=8))
        path = writer.entry_path("ck")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        reader = TemplateStore(disk_dir=str(tmp_path))
        assert reader.lookup("ck") is None
        assert reader.stats["quarantined"] == 1
        assert os.path.exists(path + ".corrupt")

    def test_foreign_format_reads_as_miss(self, tmp_path):
        writer = TemplateStore(disk_dir=str(tmp_path))
        writer.store("fk", VCTemplate(check="races", width=8))
        path = writer.entry_path("fk")
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["tag"] == TEMPLATE_FORMAT_TAG
        payload["tag"] = "someone-elses-tag"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        reader = TemplateStore(disk_dir=str(tmp_path))
        assert reader.lookup("fk") is None
        # another generation's entry is left for it, never quarantined
        assert reader.stats["quarantined"] == 0
        assert os.path.exists(path)
        assert not os.path.exists(path + ".corrupt")

    def test_kill_switch(self, monkeypatch):
        monkeypatch.setenv("PUGPARA_TEMPLATES", "0")
        assert not templates_enabled()
        assert resolve_template_store() is None
        monkeypatch.setenv("PUGPARA_TEMPLATES", "1")
        assert resolve_template_store() is not None


class TestCheckerIntegration:
    def test_hit_is_bit_identical(self):
        info = _info(RACY)
        cold = check_races(info, 8)
        store = resolve_template_store()
        assert store.stats["stores"] >= 1
        warm = check_races(info, 8)
        assert store.stats["hits"] >= 1
        a, b = outcome_to_json(cold), outcome_to_json(warm)
        for body in (a, b):
            body.pop("elapsed", None)
            body.pop("solver_time", None)
            body.pop("stats", None)
        assert a == b
        assert cold.verdict is Verdict.BUG
        assert warm.stats["encode"]["template_hits"] == 1
        assert warm.stats["encode"]["symexec_time"] == 0.0

    def test_verified_kernel_hits_too(self):
        info = _info(CLEAN)
        assert check_races(info, 8, assumption_builder=one_d,
                           timeout=60).verdict is Verdict.VERIFIED
        warm = check_races(info, 8, assumption_builder=one_d, timeout=60)
        assert warm.verdict is Verdict.VERIFIED
        assert warm.stats["encode"]["template_hits"] == 1

    def test_unsupported_cached(self):
        _, info = load("scanNaive")
        cold = check_races(info, 8, timeout=60)
        warm = check_races(info, 8, timeout=60)
        assert cold.verdict is Verdict.UNSUPPORTED
        assert cold.verdict is warm.verdict
        assert cold.reason == warm.reason
        assert warm.stats["encode"]["template_hits"] == 1

    def test_shared_across_concretizations(self):
        """The point of the template: configs cells reuse one symexec."""
        _, info = load("optimizedReduce")
        check_races(info, 8, assumption_builder=reduction_assumptions,
                    concretize={"bdim": (8, 1, 1), "gdim": (1, 1)},
                    timeout=120)
        store = resolve_template_store()
        before = store.stats["hits"]
        out = check_races(info, 8, assumption_builder=reduction_assumptions,
                          concretize={"bdim": (4, 1, 1), "gdim": (1, 1)},
                          timeout=120)
        assert out.verdict is Verdict.VERIFIED
        assert store.stats["hits"] > before
